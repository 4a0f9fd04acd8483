// Package lcs implements classical dynamic-programming algorithms for the
// longest common subsequence problem. These are the paper's baselines:
//
//   - prefix_rowmajor: linear-space DP in row-major order,
//   - prefix_antidiag: DP in anti-diagonal order (independent cells),
//   - prefix_antidiag branchless: the anti-diagonal order with the
//     conditional replaced by branch-free integer selection, the portable
//     analog of the paper's SIMD variant,
//
// plus a quadratic full-table scorer, used as a correctness oracle by the
// rest of the repository.
package lcs

// ScoreFull computes LCS(a, b) with the full O(mn) table. It is the
// reference oracle; use the prefix variants for long inputs.
func ScoreFull(a, b []byte) int {
	m, n := len(a), len(b)
	w := n + 1
	dp := make([]int32, (m+1)*w)
	for i := 1; i <= m; i++ {
		cur, prev := dp[i*w:], dp[(i-1)*w:]
		ai := a[i-1]
		for j := 1; j <= n; j++ {
			if ai == b[j-1] {
				cur[j] = prev[j-1] + 1
			} else if prev[j] >= cur[j-1] {
				cur[j] = prev[j]
			} else {
				cur[j] = cur[j-1]
			}
		}
	}
	return int(dp[m*w+n])
}

// PrefixRowMajor computes LCS(a, b) in O(mn) time and O(n) space,
// processing the grid row by row (the paper's prefix_rowmajor).
func PrefixRowMajor(a, b []byte) int {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 0
	}
	row := make([]int32, n+1)
	for i := 0; i < m; i++ {
		ai := a[i]
		var diag int32 // dp[i-1][j-1]
		for j := 1; j <= n; j++ {
			up := row[j]
			if ai == b[j-1] {
				row[j] = diag + 1
			} else if up < row[j-1] {
				row[j] = row[j-1]
			}
			diag = up
		}
	}
	return int(row[n])
}

// diagCells returns the number of cells and the starting row of
// anti-diagonal d of an m×n grid (cells (i,j) with i+j == d).
func diagCells(d, m, n int) (lo, hi int) {
	lo = d - (n - 1)
	if lo < 0 {
		lo = 0
	}
	hi = d
	if hi > m-1 {
		hi = m - 1
	}
	return lo, hi
}

// PrefixAntidiag computes LCS(a, b) iterating over anti-diagonals with
// conditional branching in the cell update (the paper's prefix_antidiag
// before SIMD conversion).
func PrefixAntidiag(a, b []byte) int {
	return prefixAntidiag(a, b, false)
}

// PrefixAntidiagBranchless is PrefixAntidiag with the cell update
// expressed in branch-free integer arithmetic — the portable analog of
// the paper's prefix_antidiag_SIMD.
func PrefixAntidiagBranchless(a, b []byte) int {
	return prefixAntidiag(a, b, true)
}

// prefixAntidiag runs the anti-diagonal DP. Cells on a diagonal are
// independent: dp(i,j) depends on diagonals d-1 (up, left) and d-2
// (up-left). Three diagonal buffers are rotated.
//
// Buffer convention: buffer index r holds dp values for cells of one
// diagonal, indexed by row i.
func prefixAntidiag(a, b []byte, branchless bool) int {
	m, n := len(a), len(b)
	if m == 0 || n == 0 {
		return 0
	}
	// dp over diagonals: diag d has cells (i, d-i). Store by row index.
	prev2 := make([]int32, m) // diagonal d-2
	prev1 := make([]int32, m) // diagonal d-1
	cur := make([]int32, m)   // diagonal d
	last := int32(0)
	for d := 0; d < m+n-1; d++ {
		lo, hi := diagCells(d, m, n)
		for i := lo; i <= hi; i++ {
			j := d - i
			// Neighbors: up (i-1, j) on diag d-1 at row i-1;
			// left (i, j-1) on diag d-1 at row i;
			// up-left (i-1, j-1) on diag d-2 at row i-1.
			var up, left, ul int32
			if i > 0 {
				up = prev1[i-1]
				if j > 0 {
					ul = prev2[i-1]
				}
			}
			if j > 0 {
				left = prev1[i]
			}
			if branchless {
				eq := int32(0)
				if a[i] == b[j] {
					eq = 1
				}
				v := ul + eq
				v = maxBranchless(v, up)
				v = maxBranchless(v, left)
				cur[i] = v
			} else {
				v := up
				if left > v {
					v = left
				}
				if a[i] == b[j] && ul+1 > v {
					v = ul + 1
				}
				cur[i] = v
			}
		}
		last = cur[m-1]
		prev2, prev1, cur = prev1, cur, prev2
	}
	return int(last)
}

// maxBranchless returns max(x, y) without a conditional branch, as in the
// paper's branch-elimination discussion. Safe for values whose difference
// does not overflow int32 (LCS scores are bounded by the input length).
func maxBranchless(x, y int32) int32 {
	d := x - y
	return x - (d & (d >> 31))
}
