//go:build !amd64

package tensor

func dotRows(dst, rows, x []float32) { dotRowsGeneric(dst, rows, x) }
