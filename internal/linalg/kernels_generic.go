//go:build !amd64

package linalg

func sqDist4(dst *[4]float64, a, panel []float64) { sqDist4Generic(dst, a, panel) }
func dist4(dst *[4]float64, a, panel []float64)   { dist4Generic(dst, a, panel) }
