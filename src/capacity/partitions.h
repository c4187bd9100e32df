// The partition lemmas of Appendix B.
//
//  * Lemma B.1 (signal strengthening, after [35]): any p-feasible set can be
//    partitioned into ceil(2q/p)^2 q-feasible sets.  Implemented as two
//    first-fit passes -- one admitting against shorter links, one against
//    longer links -- each needing at most ceil(2q/p) classes by the
//    counting argument in the lemma.
//  * Lemma B.2: an e^2/beta-feasible set under uniform power is
//    1/zeta-separated (verification predicate; the statement is checked
//    empirically in tests/benches).
//  * Lemma B.3: a tau-separated set in a space whose quasi-metric has
//    doubling dimension A' partitions into O((eta/tau)^A') eta-separated
//    sets, by first-fit colouring of the proximity conflict graph along a
//    non-increasing length order (a rho-inductive ordering).
//  * Lemma 4.1: composition of B.1 + B.2 + B.3 -- a feasible set partitions
//    into O(zeta^{2A'}) zeta-separated sets.
//
// All partitions run on a prebuilt sinr::KernelCache, so chaining B.1 and
// B.3 (as Lemma41Partition does) reads one kernel.  Lemma B.1 holds under
// the kernel's power assignment; B.2, B.3 and Lemma 4.1 are stated for a
// uniform-power kernel.
#pragma once

#include <span>
#include <vector>

#include "sinr/kernel.h"

namespace decaylib::capacity {

// Lemma B.1.  Requires q >= p > 0 and S p-feasible under `power`; returns
// groups, each q-feasible, at most ceil(2q/p)^2 of them.
std::vector<std::vector<int>> SignalStrengthen(const sinr::KernelCache& kernel,
                                               std::span<const int> S,
                                               double p, double q);

// Lemma B.3.  Partitions a set of links into eta-separated classes by
// first-fit colouring along non-increasing link length; conflict between two
// links iff d(l_v, l_w) < eta * max(d_vv, d_ww).  (The classes are
// eta-separated by construction; the doubling dimension only controls how
// many classes are needed.)
std::vector<std::vector<int>> SeparationPartition(
    const sinr::KernelCache& kernel, std::span<const int> S, double eta,
    double zeta);

// Lemma 4.1.  Partitions a feasible set S (uniform power) into zeta-separated
// sets: signal-strengthen to e^2/beta-feasible classes, then separation-
// partition each to zeta-separated classes.
std::vector<std::vector<int>> Lemma41Partition(const sinr::KernelCache& kernel,
                                               std::span<const int> S,
                                               double zeta);

}  // namespace decaylib::capacity
