//go:build !amd64

package textsim

// alignKernel reports that this platform has no SIMD alignment kernel, so
// alignPass always takes the row path.
const alignKernel = false

// alignDiag is never called where alignKernel is false.
func alignDiag(out, up, dg *int16, stride int, as, bs *int16, chunks int, best *[16]int16) {
	panic("textsim: no SIMD alignment kernel on this platform")
}
