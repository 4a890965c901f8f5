// Hotels: sensitivity analysis for multi-criteria decision making — the
// paper's §1 second motivating application (the tripadvisor scenario).
//
// A traveler scores hotels on price value, cleanliness and service with
// personal weights and shortlists the top 5. The immutable regions
// profile how robust that shortlist is to each stated preference: a
// narrow region means the recommendation is sensitive to that criterion.
// With φ=2 the program also reports the next two shortlists past each
// bound, so the traveler sees exactly what trade-off each weight change
// buys.
//
// Run: go run ./examples/hotels
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"repro"
)

// criteria indices in the hotel attribute space.
const (
	attrPrice   = iota // price value: 1 = great deal
	attrClean          // cleanliness score from reviews
	attrLoc            // location convenience
	attrService        // staff/service score
	attrWifi           // amenity score
	numAttrs
)

var attrName = [numAttrs]string{"price", "cleanliness", "location", "service", "wifi"}

func main() {
	hotels, names := makeHotels()
	eng := repro.NewEngine(hotels, numAttrs)

	// The traveler cares about price, cleanliness and service.
	q, err := repro.NewQuery(
		[]int{attrPrice, attrClean, attrService},
		[]float64{0.9, 0.7, 0.4},
	)
	if err != nil {
		log.Fatal(err)
	}

	const k, phi = 5, 2
	a, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: repro.CPT, Phi: phi})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("current shortlist:")
	for rank, sc := range a.Result {
		fmt.Printf("  %d. %-22s score %.3f\n", rank+1, names[sc.ID], sc.Score)
	}

	fmt.Println("\nsensitivity per criterion (wider bar = more robust):")
	type sens struct {
		reg   repro.Regions
		width float64
	}
	var rows []sens
	for _, reg := range a.Regions {
		rows = append(rows, sens{reg, reg.Hi - reg.Lo})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].width < rows[j].width })
	for _, row := range rows {
		fmt.Printf("  %-12s %s\n", attrName[row.reg.Dim], repro.RenderSlider(q, row.reg, 36))
	}
	fmt.Printf("\nmost sensitive criterion: %s — a %.3f-wide band preserves the shortlist.\n",
		attrName[rows[0].reg.Dim], rows[0].width)

	fmt.Printf("\nwhat-if schedule (up to %d changes per direction):\n", phi+1)
	base := a.RankedIDs()
	for _, reg := range a.Regions {
		for i, p := range reg.Right {
			next, err := reg.ResultAfter(base, true, i)
			if err != nil {
				break
			}
			fmt.Printf("  raise %-12s by > %+.4f → %v\n", attrName[reg.Dim], p.Delta, nameList(names, next))
		}
		for i, p := range reg.Left {
			next, err := reg.ResultAfter(base, false, i)
			if err != nil {
				break
			}
			fmt.Printf("  lower %-12s by > %+.4f → %v\n", attrName[reg.Dim], p.Delta, nameList(names, next))
		}
	}
}

// makeHotels fabricates 40 hotels with plausible trade-offs: cheap ones
// skimp on service, luxury ones cost more, plus random variation.
func makeHotels() ([]repro.Tuple, []string) {
	rng := rand.New(rand.NewSource(3))
	var hotels []repro.Tuple
	var names []string
	kinds := []struct {
		name           string
		price, clean   float64
		loc, svc, wifi float64
	}{
		{"Budget Inn", 0.95, 0.45, 0.5, 0.35, 0.4},
		{"Midtown Suites", 0.6, 0.7, 0.75, 0.65, 0.7},
		{"Grand Palace", 0.25, 0.9, 0.85, 0.92, 0.85},
		{"Airport Lodge", 0.8, 0.55, 0.3, 0.5, 0.6},
	}
	for i := 0; i < 40; i++ {
		kind := kinds[i%len(kinds)]
		jit := func(v float64) float64 {
			v += 0.12 * rng.NormFloat64()
			if v < 0.05 {
				v = 0.05
			}
			if v > 1 {
				v = 1
			}
			return v
		}
		hotels = append(hotels, repro.FromDense([]float64{
			jit(kind.price), jit(kind.clean), jit(kind.loc), jit(kind.svc), jit(kind.wifi),
		}))
		names = append(names, fmt.Sprintf("%s #%d", kind.name, i/len(kinds)+1))
	}
	return hotels, names
}

func nameList(names []string, ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = names[id]
	}
	return out
}
