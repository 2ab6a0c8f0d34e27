package linalg

// Hooks for the differential tests of the external test package, which
// imports the problem suite (and so cannot live in package linalg).
var (
	Nullspace64           = nullspace64
	NullspaceBig          = nullspaceBig
	KernelBasisInteger64  = kernelBasisInteger64
	KernelBasisIntegerBig = kernelBasisIntegerBig
)
