// Stub of the real internal/lists surface the locksafe fixtures call.
package lists

func SaveDataset(path string, data []byte) error { return nil }

func SaveIndex(path string, frozen []byte) error { return nil }

func Walk(fn func(id uint64)) {}
