package tensor

// dotRows is the SSE kernel behind DotRows (dotrows_amd64.s). SSE is part of
// the amd64 baseline, so it needs no CPU feature check.
//
//go:noescape
func dotRows(dst, rows, x []float32)
