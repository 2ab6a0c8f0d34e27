package linalg_test

import (
	"testing"

	"rasengan/internal/linalg"
	"rasengan/internal/problems"
)

// The exact kernels on scale-4 constraint matrices: FLP (TU, small) and
// GCP (wider, non-TU slack columns).

func benchKernel(b *testing.B, label string, kernel func(*linalg.IntMat) [][]int64) {
	bm, err := problems.ByLabel(label)
	if err != nil {
		b.Fatal(err)
	}
	C := bm.Generate(0).C
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		kernel(C)
	}
}

func BenchmarkNullspaceF4(b *testing.B) { benchKernel(b, "F4", linalg.Nullspace) }

func BenchmarkNullspaceG4(b *testing.B) { benchKernel(b, "G4", linalg.Nullspace) }

func BenchmarkKernelBasisIntegerF4(b *testing.B) { benchKernel(b, "F4", linalg.KernelBasisInteger) }

func BenchmarkKernelBasisIntegerG4(b *testing.B) { benchKernel(b, "G4", linalg.KernelBasisInteger) }
