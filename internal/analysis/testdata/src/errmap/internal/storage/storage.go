// Fixture for the errmap panic rule on the storage side: CatchFault is
// where a fault on a tuple mapping is recovered.
package storage

import "errors"

func CatchFault(err *error) {
	if r := recover(); r != nil {
		*err = errors.New("storage: read fault")
	}
}

func swallow() {
	defer func() {
		recover() // want `recover\(\) outside storage.CatchFault and Engine.run`
	}()
}
