package textsim

// alignKernel reports that this platform has alignDiag. SSE2 is the
// amd64 baseline, so every amd64 CPU runs it.
const alignKernel = true

// alignDiag fills one anti-diagonal of the alignment pass eight cells at
// a time; see alignLanes for the layout and align_amd64.s for the code.
//
//go:noescape
func alignDiag(out, up, dg *int16, stride int, as, bs *int16, chunks int, best *[16]int16)
