package mat

// transposeTile is the tile edge of the blocked transpose: two 32×32 float64
// tiles are 16 KiB together, comfortably inside an L1 data cache, so both the
// row-major reads and the column-major writes stay cache-resident.
const transposeTile = 32

// Transpose writes the n×m transpose of the m×n row-major src into dst:
// dst[j*m+i] = src[i*n+j]. It walks the matrix in square tiles so that,
// unlike a naive loop, neither side's accesses stride across cache lines.
// dst and src must not alias.
func Transpose(dst, src []float64, m, n int) {
	for ib := 0; ib < m; ib += transposeTile {
		imax := min(ib+transposeTile, m)
		for jb := 0; jb < n; jb += transposeTile {
			jmax := min(jb+transposeTile, n)
			for i := ib; i < imax; i++ {
				row := src[i*n : i*n+n]
				for j := jb; j < jmax; j++ {
					dst[j*m+i] = row[j]
				}
			}
		}
	}
}
