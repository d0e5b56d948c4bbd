//go:build !amd64

package core

// whtAVX2 is false off amd64: whtStages runs its Go body.
var whtAVX2 = false

func whtRadix4AVX2([]float64, int) { panic("core: no AVX2 kernel on this architecture") }

func whtGroupsAVX2([]float64) { panic("core: no AVX2 kernel on this architecture") }
