// Out-of-scope package: detcore must not fire outside the core paths.
package util

import "time"

func Count(m map[string]int) int {
	n := 0
	for range m {
		n++
	}
	return n
}

func Stamp() time.Time { return time.Now() }

func Axpy(a, x, y float64) float64 { return a*x + y }
