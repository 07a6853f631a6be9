#include "collection/count_kernels.h"

#include <algorithm>
#include <utility>

#include "collection/entity_counter.h"

// With SETDISC_KERNEL_MULTIARCH on (gcc/x86-64 only), each kernel is cloned
// per target ISA and dispatched once at load time via ifunc — the portable
// way to let the derive loops use wider vectors without shipping an
// -march-specific binary. The clones are semantically identical (same
// scalar semantics, just wider registers); count_kernels_test runs against
// whatever clone the host dispatches to, so the parity check covers the
// selected ISA. OrderByImbalance's scatter does not vectorize, so it is
// not cloned.
#if defined(SETDISC_KERNEL_MULTIARCH) && defined(__GNUC__) && \
    !defined(__clang__) && defined(__x86_64__)
#define SETDISC_KERNEL_TARGETS \
  __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define SETDISC_KERNEL_TARGETS
#endif

namespace setdisc::kernels {

SETDISC_KERNEL_TARGETS
size_t AccumulateCounts(const SubCollection& sub, uint32_t* counts,
                        EntityId* touched) {
  const SetCollection& collection = sub.collection();
  size_t t = 0;
  for (SetId s : sub.ids()) {
    std::span<const EntityId> elems = collection.set(s);
    const EntityId* p = elems.data();
    const EntityId* const end = p + elems.size();
    // The store to touched[t] is unconditional (overwritten in place until
    // an actual first touch advances t): no branch in the loop body, only
    // the gather-increment's data dependence.
    for (; p != end; ++p) {
      const EntityId e = *p;
      touched[t] = e;
      t += counts[e]++ == 0;
    }
  }
  return t;
}

SETDISC_KERNEL_TARGETS
size_t GatherChild(const EntityCount* parent, size_t m, const uint32_t* dense,
                   size_t dense_size, uint32_t n, bool drop_full,
                   EntityCount* out) {
  // With drop_full off, `full` is 0 and the second comparison collapses
  // into the first (a nonzero count never equals 0).
  const uint32_t full = drop_full ? n : 0;
  size_t w = 0;
  for (size_t i = 0; i < m; ++i) {
    const EntityId e = parent[i].entity;
    const uint32_t c = e < dense_size ? dense[e] : 0;
    out[w] = EntityCount{e, c};
    w += (c != 0) & (c != full);
  }
  return w;
}

SETDISC_KERNEL_TARGETS
size_t SubtractChild(const EntityCount* parent, size_t m, const uint32_t* dense,
                     size_t dense_size, uint32_t n, bool drop_full,
                     EntityCount* out) {
  const uint32_t full = drop_full ? n : 0;
  size_t w = 0;
  for (size_t i = 0; i < m; ++i) {
    const EntityId e = parent[i].entity;
    uint32_t c = parent[i].count;
    c -= e < dense_size ? dense[e] : 0;
    out[w] = EntityCount{e, c};
    w += (c != 0) & (c != full);
  }
  return w;
}

void OrderByImbalance(const EntityCount* asc, size_t m, uint32_t n,
                      uint32_t* bucket, EntityCount* out) {
  const auto key = [n](uint32_t c) {
    const uint32_t other = n - c;
    return c > other ? c - other : other - c;
  };
  std::fill(bucket, bucket + n + 1, 0u);
  for (size_t i = 0; i < m; ++i) ++bucket[key(asc[i].count)];
  uint32_t sum = 0;
  for (uint32_t k = 0; k <= n; ++k) sum += std::exchange(bucket[k], sum);
  // The scatter is stable and `asc` ascends by entity, so entities stay
  // ascending within a key.
  for (size_t i = 0; i < m; ++i) out[bucket[key(asc[i].count)]++] = asc[i];
}

}  // namespace setdisc::kernels
