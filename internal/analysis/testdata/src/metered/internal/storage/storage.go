// Stub of the real internal/storage metering surface.
package storage

type IOStats struct{}

func (s *IOStats) Child() *IOStats { return &IOStats{} }

type TupleFile struct{}

func (t *TupleFile) Get(id uint64) []float64 { return nil }

func (t *TupleFile) GetWith(id uint64, st *IOStats) []float64 { return nil }

func (t *TupleFile) Prefetch(ids []int32) uint64 { return 0 }

type Cursor struct{}

type ListFile struct{}

func (l *ListFile) Cursor(dim int) *Cursor { return nil }

func (l *ListFile) CursorWith(dim int, st *IOStats) *Cursor { return nil }

type Pager struct{}

func (p *Pager) ReadRange(off, n int64) []byte { return nil }

func (p *Pager) Slice(off, n int64) []byte { return nil }
