// Package lib holds the fixture's library functions: one the app
// links, one only the nested tool links, and one nothing links.
package lib

// Counter counts.
type Counter struct{ n int }

// Used is linked into the app.
func Used() int {
	var c Counter
	c.Inc()
	return c.n
}

// Inc is linked through Used.
func (c *Counter) Inc() { c.n++ }

// ToolOnly is linked only into the nested module's binary.
func ToolOnly() int { return 2 }

// Spare is linked into no binary.
func Spare() int { return 3 }
