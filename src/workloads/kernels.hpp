// Generic IdLite workload generators ("a few generic examples, such as
// matrix multiply", paper section 5.2) used by examples, tests and benches.
#pragma once

#include <string>

namespace pods::workloads {

/// The paper's Figure-2 example: fill a rows x cols matrix element-wise
/// through an (inlined) function f(i, j). main returns the matrix.
std::string fill2dSource(int rows, int cols);

/// Dense n x n matrix multiply C = A * B with generated inputs; the inner
/// dot product is a carried (LCD) loop. main returns C.
std::string matmulSource(int n);

/// Five-point Jacobi heat relaxation on an n x n grid for `steps` steps,
/// time-stepped by a while-loop carrying the grid. main returns the grid.
std::string stencilSource(int n, int steps);

/// Sum reduction over an n-element vector (a pure LCD loop reading a
/// distributed array). main returns the sum.
std::string reduceSource(int n);

/// Adversarial array ownership for the wire store: iteration i writes b[i]
/// but reads the block-layout mirror a[n-1-i], remotely owned for nearly
/// every i (and racing a's fill, so reads park as deferred reads at the
/// owner). main returns b and a checksum.
std::string reversalSource(int n);

/// Recursion on every PE: a distributed loop over an n-element array
/// stores real(fib(5 + k % 5)) at each index k, and a carried loop sums
/// the array. Every PE runs its slice's calls, so faults and kills land on
/// recursive frames everywhere. main returns the sum.
std::string spreadFibSource(int n);

/// Triangular workload: row i does i+1 writes — deliberate load imbalance
/// across the row-partitioned iteration space. main returns the row sums.
std::string triangularSource(int n);

}  // namespace pods::workloads
