package main

import (
	"context"
	"fmt"
	"math"

	"lcakp/internal/core"
	"lcakp/internal/engine"
	"lcakp/internal/epoch"
	"lcakp/internal/knapsack"
	"lcakp/internal/oracle"
	"lcakp/internal/rng"
	"lcakp/internal/store"
	"lcakp/internal/workload"
)

// instanceID is the instance hash every tenant of the benchmark shares.
const instanceID = 1

// Instance shape: a zipf tail scaled to 88% of the profit plus two
// planted items of profit 0.06 each. At ε = 0.2 (ε² = 0.04) the plain
// zipf family has no item above ε², so its solution has no large
// member; the planted pair gives the rule a large set to carry.
const (
	tailShare     = 0.88
	plantedProfit = 0.06
	plantedCount  = 2
)

// Guards against vacuous reference solutions.
const (
	// minTrueShare and maxTrueShare bound the share of items a
	// reference solution selects: a solution selecting (almost) nothing
	// or (almost) everything would let a constant answer pass the gate.
	minTrueShare = 0.01
	maxTrueShare = 0.5
	// profitTolerance bounds how far a mutated epoch's total profit may
	// drift from the base instance's (Definition 2.2 normalisation).
	profitTolerance = 1e-9
)

// inputs are everything the benchmark derives from its seed before any
// program set-up runs: the instance, the tenants, the reference answers
// of every epoch that will be served, and the request streams.
type inputs struct {
	inst *knapsack.Instance
	// tenants[0] is the default tenant (untenanted frames); the rest
	// are addressed by tenanted frames.
	tenants []engine.TenantID
	// ref[t] holds tenant t's epoch-0 reference answers.
	ref []answerSet
	// epochs[e-1] is the default tenant's epoch e: the mutations that
	// seal it and its reference answers.
	epochs []epochInput
	// streams[t] is the request stream of the connection serving
	// tenants[t] (item indices, consumed in order and cycled).
	streams [][]int
	// warm[t] is the warm-up stream sent before the window.
	warm [][]int
	// probe is the item set checked after each post-window publish.
	probe []int
	// trueShare is the share of items the default tenant's epoch-0
	// solution selects.
	trueShare float64
}

// epochInput is one published epoch of the default tenant.
type epochInput struct {
	muts []epoch.Mutation
	ref  answerSet
}

// answerSet packs one reference solution, one bit per item, so the
// references of a hundred epochs add little to the heap the run
// measures.
type answerSet []uint64

func packAnswers(answers []bool) answerSet {
	set := make(answerSet, (len(answers)+63)/64)
	for i, a := range answers {
		if a {
			set[i/64] |= 1 << (i % 64)
		}
	}
	return set
}

// has reports item i's reference answer.
func (s answerSet) has(i int) bool { return s[i/64]>>(i%64)&1 == 1 }

// refAt returns the default tenant's reference answers at epoch ep, or
// nil for an epoch the benchmark never publishes.
func (in *inputs) refAt(ep engine.EpochID) answerSet {
	switch {
	case ep == 0:
		return in.ref[0]
	case uint64(ep) <= uint64(len(in.epochs)):
		return in.epochs[ep-1].ref
	default:
		return nil
	}
}

// lcaParams returns the LCA parameters of one tenant.
func lcaParams(id engine.TenantID) core.Params {
	return core.Params{Epsilon: epsilon, Seed: id.Seed}
}

// prepare builds the inputs of one run from cfg.seed alone.
func prepare(ctx context.Context, cfg config) (*inputs, error) {
	inst, err := buildInstance(cfg.n, cfg.seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{inst: inst}
	for t := 0; t < cfg.tenants; t++ {
		in.tenants = append(in.tenants, engine.TenantID{Instance: instanceID, Seed: 2*cfg.seed + uint64(t) + 1})
	}
	for t, id := range in.tenants {
		answers, err := reference(ctx, inst, lcaParams(id))
		if err != nil {
			return nil, fmt.Errorf("tenant %s epoch 0: %w", id, err)
		}
		if t == 0 {
			in.trueShare = share(answers)
		}
		in.ref = append(in.ref, packAnswers(answers))
	}

	// Replay the seeded mutation schedule of the default tenant with
	// epoch.Apply, checking each epoch's reference as strictly as the
	// base one.
	src := rng.New(cfg.seed).Derive("servebench", "churn")
	cur := inst
	total := inst.TotalProfit()
	for e := 1; e <= cfg.epochCount(); e++ {
		muts := swapProfits(cur, src, swapsPerEpoch, epsilon*epsilon)
		next, err := epoch.Apply(cur, muts)
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", e, err)
		}
		if d := math.Abs(next.TotalProfit() - total); d > profitTolerance {
			return nil, fmt.Errorf("epoch %d: mutations moved total profit by %g", e, d)
		}
		answers, err := reference(ctx, next, lcaParams(in.tenants[0]))
		if err != nil {
			return nil, fmt.Errorf("tenant %s epoch %d: %w", in.tenants[0], e, err)
		}
		in.epochs = append(in.epochs, epochInput{muts: muts, ref: packAnswers(answers)})
		cur = next
	}

	src = rng.New(cfg.seed).Derive("servebench", "requests")
	for t := range in.tenants {
		stream, warm := cfg.requests(src.DeriveIndex("tenant", t))
		in.streams = append(in.streams, stream)
		in.warm = append(in.warm, warm)
	}
	in.probe = append(src.Derive("probe").Perm(cfg.n)[:probeItems], largeIndices(inst, epsilon)...)
	return in, nil
}

// probeItems is the number of random items checked after each
// post-window publish (the large items are always added).
const probeItems = 64

// buildInstance generates the benchmark instance of n items: a zipf
// tail scaled to tailShare of the profit, plus plantedCount items of
// plantedProfit at seeded positions. Total profit stays 1.
func buildInstance(n int, seed uint64) (*knapsack.Instance, error) {
	gen, err := workload.Generate(workload.Spec{Name: "zipf", N: n - plantedCount, Seed: seed})
	if err != nil {
		return nil, err
	}
	items := make([]knapsack.Item, 0, n)
	for _, it := range gen.Float.Items {
		items = append(items, knapsack.Item{Profit: it.Profit * tailShare, Weight: it.Weight})
	}
	src := rng.New(seed).Derive("servebench", "planted")
	planted := knapsack.Item{Profit: plantedProfit, Weight: gen.Float.Capacity / 50}
	for k := 0; k < plantedCount; k++ {
		pos := src.Intn(len(items) + 1)
		items = append(items, knapsack.Item{})
		copy(items[pos+1:], items[pos:])
		items[pos] = planted
	}
	return knapsack.NewInstance(items, gen.Float.Capacity)
}

// reference derives the canonical rule of (inst, params) with
// store.MaterializeRule and evaluates it over every item with
// Rule.Decide, then rejects a vacuous solution.
func reference(ctx context.Context, inst *knapsack.Instance, params core.Params) ([]bool, error) {
	access, err := oracle.NewSliceOracle(inst)
	if err != nil {
		return nil, err
	}
	lca, err := core.NewLCAKP(access, params)
	if err != nil {
		return nil, err
	}
	rule, err := store.MaterializeRule(ctx, lca)
	if err != nil {
		return nil, err
	}
	answers := make([]bool, inst.N())
	for i, it := range inst.Items {
		answers[i] = rule.Decide(i, it)
	}
	large := 0
	for i := range rule.LargeIn {
		if answers[i] {
			large++
		}
	}
	switch s := share(answers); {
	case large == 0:
		return nil, fmt.Errorf("vacuous solution: no large item selected")
	case rule.Singleton || rule.ESmall <= 0:
		return nil, fmt.Errorf("vacuous solution: no small-item threshold (ESmall %g, singleton %v)", rule.ESmall, rule.Singleton)
	case s < minTrueShare || s > maxTrueShare:
		return nil, fmt.Errorf("vacuous solution: selects %.4f of items, want [%g, %g]", s, minTrueShare, maxTrueShare)
	}
	return answers, nil
}

// share is the fraction of true answers.
func share(answers []bool) float64 {
	n := 0
	for _, a := range answers {
		if a {
			n++
		}
	}
	return float64(n) / float64(len(answers))
}

// largeIndices lists the items above ε², the ones the rule's large set
// decides.
func largeIndices(inst *knapsack.Instance, eps float64) []int {
	var out []int
	for i, it := range inst.Items {
		if it.Profit > eps*eps {
			out = append(out, i)
		}
	}
	return out
}

// swapProfits draws one epoch's mutations: swaps of profit between
// pairs of distinct small items, each item touched at most once, so the
// multiset of profits — and with it the total — is unchanged.
func swapProfits(inst *knapsack.Instance, src *rng.Source, swaps int, eps2 float64) []epoch.Mutation {
	muts := make([]epoch.Mutation, 0, 2*swaps)
	touched := make(map[int]bool, 2*swaps)
	for len(muts) < 2*swaps {
		a, b := src.Intn(inst.N()), src.Intn(inst.N())
		pa, pb := inst.Items[a], inst.Items[b]
		if a == b || touched[a] || touched[b] || pa.Profit > eps2 || pb.Profit > eps2 {
			continue
		}
		touched[a], touched[b] = true, true
		muts = append(muts,
			epoch.Mutation{Op: epoch.OpReprice, Index: uint32(a), Profit: pb.Profit, Weight: pa.Weight},
			epoch.Mutation{Op: epoch.OpReprice, Index: uint32(b), Profit: pa.Profit, Weight: pb.Weight})
	}
	return muts
}
