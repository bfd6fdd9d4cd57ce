// Baseline file-system service: FsService's FS mode over a conventional BlockDevice — a
// remote NVMe-oF namespace behind the Linux page cache ("Disaggregated Baseline", Section
// 6.4) or a directly attached NVMe ("Local Baseline"). Clients see the FractOS FS interface
// of fs.h unchanged (FsClient works as is); only the storage under the FS-mode pipeline
// differs: each file is one region of the device, placed by an ExtentAllocator, which the FS
// Process reads and writes itself into its staging slots.
//
// There is deliberately NO DAX mode and no unlink here: a kernel block device cannot
// delegate authority over sub-ranges to third parties — that composition is exactly what
// FractOS adds. The Process is named "baseline-fs" and serves create and open only.

#ifndef SRC_BASELINES_BASELINE_FS_H_
#define SRC_BASELINES_BASELINE_FS_H_

#include "src/baselines/block_device.h"
#include "src/services/fs.h"

namespace fractos {

class BaselineFs : public FsService {
 public:
  BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device);
  BaselineFs(System* sys, uint32_t node, Controller& controller, BlockDevice* device,
             Params params);
};

}  // namespace fractos

#endif  // SRC_BASELINES_BASELINE_FS_H_
