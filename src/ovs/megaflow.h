// The megaflow cache, the second-level cache of the userspace datapath.
// The implementation lives in kern/megaflow.h, because the kernel
// module's flow table is the same classifier; these aliases keep the
// ovs:: spelling working.
#pragma once

#include "kern/megaflow.h"

namespace ovsx::ovs {

using CachedFlow = kern::CachedFlow;
using CachedFlowPtr = kern::CachedFlowPtr;
using MegaflowCache = kern::MegaflowCache;

} // namespace ovsx::ovs
