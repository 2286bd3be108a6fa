/**
 * @file
 * SIM_OWNER_INVARIANT: checked-build enforcement of the partition
 * map's co-location claims.
 *
 * nectar-lint's access-graph pass (tools/nectar-lint/graph.hh)
 * proves statically that every mutating inter-component edge is
 * owned, co-located, or mediated through the fiber chokepoints.
 * This header is the runtime cross-check: builders tag each
 * component with its cluster (a HUB plus its CABs) via
 * Component::setOwnerCluster, and the mediated-call chokepoints
 * assert that the caller and callee really share a cluster — so a
 * wiring mistake that the lexical pass cannot see (say, a test
 * harness handing CAB 3's datalink to CAB 7's transport) panics in a
 * checked build instead of silently coupling two clusters outside the
 * fiber chokepoints.
 *
 * Untagged components (unownedCluster) pass every check: shared
 * infrastructure such as fiber links is deliberately unowned, and
 * systems assembled without tagging keep working.
 */

#pragma once

#include "component.hh"
#include "invariant.hh"

namespace nectar::sim {

/** True unless both are tagged and tagged differently. */
inline bool
sameOwnerCluster(const Component &a, const Component &b)
{
    return a.ownerCluster() == unownedCluster ||
           b.ownerCluster() == unownedCluster ||
           a.ownerCluster() == b.ownerCluster();
}

} // namespace nectar::sim

/**
 * Assert two components share a partition cluster (or at
 * least one is untagged).  Compiles away unless NECTAR_CHECKED.
 */
#define SIM_OWNER_INVARIANT(a, b, what)                               \
    SIM_INVARIANT(::nectar::sim::sameOwnerCluster((a), (b)), (what))
