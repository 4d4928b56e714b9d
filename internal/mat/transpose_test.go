package mat

import "testing"

func TestTranspose(t *testing.T) {
	for _, dims := range [][2]int{{1, 1}, {3, 5}, {32, 32}, {33, 31}, {70, 100}, {100, 70}} {
		m, n := dims[0], dims[1]
		src := make([]float64, m*n)
		for k := range src {
			src[k] = float64(k)
		}
		dst := make([]float64, m*n)
		Transpose(dst, src, m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if dst[j*m+i] != src[i*n+j] {
					t.Fatalf("%dx%d: dst[%d][%d] = %g, want %g", m, n, j, i, dst[j*m+i], src[i*n+j])
				}
			}
		}
	}
}

func BenchmarkTranspose500(b *testing.B) {
	m, n := 500, 500
	src := make([]float64, m*n)
	for k := range src {
		src[k] = float64(k)
	}
	dst := make([]float64, m*n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose(dst, src, m, n)
	}
}
