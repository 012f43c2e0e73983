// Umbrella header for the distributed solver layer: row partitioning
// (partition.h), the pluggable transport seam and its backings
// (transport.h), the typed halo-exchange communicator facade (comm.h), and
// the rank policy that runs the classic and comm-reduced CG bodies with
// per-subdomain SPCG preconditioning (dist_pcg.h).
#pragma once

#include "dist/comm.h"       // IWYU pragma: export
#include "dist/dist_pcg.h"   // IWYU pragma: export
#include "dist/partition.h"  // IWYU pragma: export
#include "dist/transport.h"  // IWYU pragma: export
