package dataset

import (
	"sync"

	"coda/internal/matrix"
)

// F32Mirror lazily caches a float32 conversion of a dataset's X and Y so
// repeated reduced-precision fits over a shared (cached) dataset convert
// once instead of per fit. The mirror lives behind a pointer so the shallow
// dataset copies transformers make (WithX drops it) share one build and one
// lock. The prefix cache installs it on cached fitted datasets and accounts
// the extra bytes via the onBuild callback.
type F32Mirror struct {
	mu      sync.Mutex
	x       *matrix.Mat[float32]
	y       []float32
	built   bool
	onBuild func(bytes int64)
}

// NewF32Mirror returns an empty mirror; onBuild (may be nil) runs once, on
// the first Get, with the number of bytes the converted copies occupy.
func NewF32Mirror(onBuild func(bytes int64)) *F32Mirror {
	return &F32Mirror{onBuild: onBuild}
}

// f32MirrorBytes returns the bytes a built mirror of d would occupy (4 per
// element).
func (d *Dataset) f32MirrorBytes() int64 {
	return int64(len(d.Y)+len(d.X.Data())) * 4
}

// F32 returns the float32 conversion of d's X and Y, building it under the
// mirror's lock on first use. It returns ok = false when d carries no
// mirror (callers then convert locally into their own scratch).
func (d *Dataset) F32() (x *matrix.Mat[float32], y []float32, ok bool) {
	m := d.Mirror
	if m == nil {
		return nil, nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.built {
		m.x = matrix.ConvertInto[float32](nil, d.X)
		m.y = matrix.ConvertVec[float32](nil, d.Y)
		m.built = true
		if m.onBuild != nil {
			m.onBuild(d.f32MirrorBytes())
		}
	}
	return m.x, m.y, true
}
