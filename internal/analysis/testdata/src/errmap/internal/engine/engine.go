// Fixture for the errmap panic rule on the engine side: the query
// funnel arms the fault switch and defers CatchFault; nothing else
// touches either.
package engine

import (
	"errors"
	"runtime/debug"

	"errmap/internal/storage"
)

type Engine struct{}

func (e *Engine) run(fn func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer storage.CatchFault(&err)
	return fn()
}

// run as a plain function is not the funnel.
func run(fn func() error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true)) // want `debug.SetPanicOnFault outside` `debug.SetPanicOnFault outside`
	return fn()
}

type Batch struct{}

func (b *Batch) run(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil { // want `recover\(\) outside`
			err = errors.New("engine: recovered")
		}
	}()
	return fn()
}
