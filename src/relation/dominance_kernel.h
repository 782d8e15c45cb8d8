// Block dominance kernels: the hot-path primitives behind SkylineWindow,
// the local skyline algorithms (BNL/SFS), and the GPSRS/GPMRS merge loops.
//
// All kernels scan a flat row-major block of `count` tuples of `dim`
// doubles (the SkylineWindow storage layout) against one candidate tuple
// and classify each row with two branchless flags:
//
//   lt = any k with row[k] < candidate[k]
//   gt = any k with row[k] > candidate[k]
//
//   row dominates candidate      iff !gt && lt   (Definition 1)
//   candidate dominates row      iff !lt && gt
//
// Two implementations sit behind one entry point: a portable flat loop
// the compiler can autovectorize, and an AVX2 path selected once at
// runtime via cpuid (x86-64 with GCC/Clang only). Both are exact — no
// tolerance, no reordering of the IEEE comparisons — so every caller
// observes the same results as the scalar `Dominates`/`CompareDominance`.
//
// The monotone min-sum key: CoordinateSum(t) is the left-to-right
// floating-point sum of t's coordinates. Rounded addition is monotone in
// each argument, so a[k] <= b[k] for all k implies
// CoordinateSum(a) <= CoordinateSum(b) — dominance never *increases* the
// computed sum even with rounding. One-directional scans use this for
// SFS-style early elimination: a row whose sum exceeds the candidate's
// can never dominate it and is skipped without touching its coordinates.

#ifndef SKYMR_RELATION_DOMINANCE_KERNEL_H_
#define SKYMR_RELATION_DOMINANCE_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace skymr {

/// The monotone dominance key: left-to-right sum of the coordinates.
double CoordinateSum(const double* row, size_t dim);

/// Fills sums[i] = CoordinateSum(rows + i * dim) for i in [0, count).
void CoordinateSums(const double* rows, size_t count, size_t dim,
                    double* sums);

/// Returns the smallest i such that rows[i] dominates `candidate`, or
/// `count` when no row does. `sums` may be null; when given, it must hold
/// the rows' CoordinateSums and `candidate_sum` the candidate's — rows
/// with sums[i] > candidate_sum are skipped without a coordinate compare
/// (they cannot dominate; see the min-sum key note above). The returned
/// index is always the first dominator in row order, screened or not.
size_t FirstDominatorIndex(const double* candidate, double candidate_sum,
                           const double* rows, const double* sums,
                           size_t count, size_t dim);

/// One-pass Insert scan (the core of Algorithm 4): returns the smallest
/// index of a row dominating `candidate`, or `count`; when it returns
/// `count`, the ascending indices of rows dominated by `candidate` have
/// been appended to *evicted. Requires the block to be mutually
/// non-dominated (the SkylineWindow invariant): under that invariant a
/// dominator and an eviction cannot coexist, so the early exit on a
/// dominator loses nothing.
size_t InsertScan(const double* candidate, const double* rows, size_t count,
                  size_t dim, std::vector<uint32_t>* evicted);

/// Sets bit i of `words` (at least (count + 63) / 64 words, pre-zeroed by
/// the caller) for every row dominated by `candidate`; returns the number
/// of bits set. `sums`/`candidate_sum` screen as in FirstDominatorIndex
/// (rows with sums[i] < candidate_sum cannot be dominated); `sums` may be
/// null.
size_t DominanceBitmap(const double* candidate, double candidate_sum,
                       const double* rows, const double* sums, size_t count,
                       size_t dim, uint64_t* words);

/// Name of the dispatched implementation: "avx2" or "portable".
const char* DominanceKernelBackend();

namespace kernel_portable {
// The autovectorizable fallback, exposed for property tests and the
// microbenchmarks (the public entry points above dispatch to these when
// AVX2 is unavailable).
size_t FirstDominatorIndex(const double* candidate, double candidate_sum,
                           const double* rows, const double* sums,
                           size_t count, size_t dim);
size_t InsertScan(const double* candidate, const double* rows, size_t count,
                  size_t dim, std::vector<uint32_t>* evicted);
size_t DominanceBitmap(const double* candidate, double candidate_sum,
                       const double* rows, const double* sums, size_t count,
                       size_t dim, uint64_t* words);
}  // namespace kernel_portable

}  // namespace skymr

#endif  // SKYMR_RELATION_DOMINANCE_KERNEL_H_
