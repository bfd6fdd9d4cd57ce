// The file-system service: the upper tier of the paper's two-tier storage stack (Section 5).
//
// "We implement a simple FS layer ... The FS Process exposes Requests to open extent-based
// files. A successful completion returns Requests to read/write the file contents.
// Internally, the FS uses one logical volume in the block device for each file extent."
//
// Two modes (Fig. 4):
//  * FS mode: every read/write is mediated by the FS Process — block-device I/O lands in FS
//    staging memory and is then copied to/from the client's Memory capability (two network
//    data transfers, the red path).
//  * DAX mode: on open, the FS hands the client revocation-tree CHILDREN of the block
//    adaptor's per-volume Requests — filtered by the open mode's permissions — so the client
//    talks to the block device directly (one transfer, the green path), without the FS giving
//    up the ability to revoke on close/unlink. This is the dynamic service composition the
//    paper cuts the disaggregation tax with.
//
// Endpoints (their immediates are the Fs*Args / Fs*Reply structs below, laid out and
// answered by the call convention of src/core/service_call.h):
//   create: FsCreateArgs, caps=[reply]. The reply is its status.
//   open:   FsOpenArgs, caps=[reply]. reply: FsOpenReply,
//           caps = [close_ep, read endpoints..., write endpoints...]
//           (FS mode: one fs_read / fs_write endpoint; DAX: one per extent.)
//   fs_read / fs_write (per open): an I/O request (src/services/completion.h).
//   close (per open): caps=[reply]. FS mode: revokes the per-open endpoints. DAX: drops a
//           reference; the cached extent children are revoked when the last open closes.
//   unlink: NameImms, caps=[reply]. Destroys the file's volumes (the block adaptor revokes
//           the per-volume endpoints, killing every outstanding DAX capability).
//
// One FS core, two backends. The front end (create/open/close, the open reply, the
// I/O-request check) and the FS-mode pipeline (chunks, staging slots, the stage-1 gate, the
// kService span and the fs.* metrics) are this class's, whatever holds the bytes:
//  * block-adaptor volumes, one per extent (FsService::bootstrap): the stage-1 leg of a
//    chunk is a block RPC into the staging slot, chunks split at extent boundaries, and DAX
//    and unlink exist;
//  * a Backend that drives a device from the FS Process itself, one ExtentAllocator region
//    per file (BaselineFs, src/baselines): the stage-1 leg is the backend's, and there is no
//    DAX and no unlink.

#ifndef SRC_SERVICES_FS_H_
#define SRC_SERVICES_FS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/system.h"
#include "src/futures/slot_pool.h"
#include "src/services/block_adaptor.h"
#include "src/services/completion.h"

namespace fractos {

struct FsCreateArgs {
  uint64_t size = 0;
  std::string name;
  FRACTOS_WIRE_FIELDS(size, name)
};
struct FsOpenArgs {
  bool rw = false;  // false: read-only
  bool dax = false;
  std::string name;
  FRACTOS_WIRE_FIELDS(rw, dax, name)
};
struct FsOpenReply {
  uint64_t size = 0;
  uint64_t extent_bytes = 0;
  uint64_t n_read = 0;   // read endpoints among the reply's caps
  uint64_t n_write = 0;  // write endpoints, after the read ones
  FRACTOS_WIRE_FIELDS(size, extent_bytes, n_read, n_write)
};
class FsService {
 public:
  struct Params {
    uint64_t extent_bytes = 4ull << 20;  // one block-device volume per extent
    uint32_t staging_slots = 8;
    uint64_t slot_bytes = 2ull << 20;
    // FS-mode I/O is streamed: chunks of at most stream_chunk bytes, up to pipeline_depth
    // in flight, so the storage leg overlaps the client-copy leg.
    uint64_t stream_chunk = 256ull << 10;
    uint32_t pipeline_depth = 2;
  };

  // Storage the FS Process drives itself instead of block-adaptor volumes.
  class Backend {
   public:
    virtual ~Backend() = default;
    // Reserves a region for a new `size`-byte file: its base offset, or nullopt when full.
    virtual std::optional<uint64_t> allocate(uint64_t size) = 0;
    // The stage-1 leg of a chunk: moves `size` bytes between offset `off` of the storage and
    // `proc`'s staging memory at `addr` — into the staging memory for a read, out of it for
    // a write — then calls `done`.
    virtual void transfer(Process& proc, bool is_write, uint64_t off, uint64_t size,
                          uint64_t addr, std::function<void(Status)> done) = 0;
  };

  // Spawns the FS Process on `node`; `block_mgmt_ep` must already be installed in ITS
  // capability space (use FsService::bootstrap to wire it).
  static std::unique_ptr<FsService> bootstrap(System* sys, uint32_t node, Controller& controller,
                                              Process& block_proc, CapId block_mgmt_ep);
  static std::unique_ptr<FsService> bootstrap(System* sys, uint32_t node, Controller& controller,
                                              Process& block_proc, CapId block_mgmt_ep,
                                              Params params);
  // Fails in-flight chunks and queued slot acquires with kAborted, in a controlled order.
  ~FsService();

  Process& process() { return *proc_; }
  CapId create_endpoint() const { return create_ep_; }
  CapId open_endpoint() const { return open_ep_; }
  CapId unlink_endpoint() const { return unlink_ep_; }
  size_t num_files() const { return files_.size(); }

 protected:
  // Spawns the FS Process as `name` with its staging slots (and, on volumes, each slot's
  // block-completion pair). `backend` null: files live on block-adaptor volumes.
  FsService(System* sys, uint32_t node, Controller& controller, Params params,
            const std::string& name, std::unique_ptr<Backend> backend);
  // Serves create and open (and, on volumes, unlink), one after another.
  void serve_endpoints();

 private:
  struct File {
    uint64_t size = 0;
    std::vector<BlockClient::Volume> extents;  // volumes: one per extent
    uint64_t base = 0;                         // backend: the file's region
    // Cached DAX revocation-tree children (created lazily, shared across opens, refcounted).
    std::vector<CapId> dax_read;
    std::vector<CapId> dax_write;
    uint32_t dax_refs = 0;
  };
  struct Open {
    std::string name;
    bool rw = false;
    bool dax = false;
    CapId read_ep = kInvalidCap;   // FS mode
    CapId write_ep = kInvalidCap;  // FS mode (RW only)
    CapId close_ep = kInvalidCap;
  };
  // A staging slot. On volumes it has its own block-RPC completion pair, created once and
  // armed by the chunk currently using the slot.
  struct Slot {
    uint64_t addr = 0;
    CapId mem = kInvalidCap;
    Completion done;
  };

  void handle_create(ServiceCall<FsCreateArgs> c);
  void create_extents(std::shared_ptr<File> file, const std::string& name, uint64_t i,
                      CapId reply);
  void handle_open(ServiceCall<FsOpenArgs> c);
  void handle_unlink(ServiceCall<NameImms> c);
  void destroy_extents(std::shared_ptr<std::vector<BlockClient::Volume>> extents, size_t i,
                       std::function<void()> done);
  void handle_io(uint32_t open_id, bool is_write, Process::Received r);
  void handle_close(uint32_t open_id, CapId reply);

  void open_fs_mode(const std::string& name, bool rw, CapId reply);
  void open_dax_mode(const std::string& name, File& f, bool rw, CapId reply);

  // Issues chunks of a (possibly extent-spanning) FS-mode I/O, up to pipeline_depth in
  // flight.
  void io_pump(std::shared_ptr<struct FsIoState> st);
  void run_chunk(std::shared_ptr<struct FsIoState> st, size_t slot_idx, uint64_t op_off,
                 uint64_t chunk);
  // Stage 1's storage side: the chunk's bytes between the file and the staging slot.
  void storage_leg(const struct FsIoState& st, size_t slot_idx, uint64_t op_off, uint64_t chunk,
                   std::function<void(Status)> done);

  System* sys_;
  Process* proc_;
  Params params_;
  std::unique_ptr<Backend> backend_;
  CapId block_mgmt_ = kInvalidCap;
  CapId create_ep_ = kInvalidCap;
  CapId open_ep_ = kInvalidCap;
  CapId unlink_ep_ = kInvalidCap;
  std::unordered_map<std::string, File> files_;
  // Names whose create is still making volumes: reserved until it replies.
  std::unordered_set<std::string> creating_;
  std::unordered_map<uint32_t, Open> opens_;
  uint32_t next_open_ = 1;
  // Declared before slots_ so teardown closes the pool before any Slot state goes away.
  SlotPool slot_pool_;
  std::vector<Slot> slots_;
};

// Client-side helpers.
struct FsClient {
  struct OpenFile {
    bool dax = false;
    bool rw = false;
    uint64_t size = 0;
    uint64_t extent_bytes = 0;
    CapId close_ep = kInvalidCap;
    std::vector<CapId> read_eps;   // FS mode: [fs_read]; DAX: per extent
    std::vector<CapId> write_eps;  // FS mode: [fs_write] (RW); DAX: per extent (RW)
  };

  static Future<Status> create(Process& proc, CapId create_ep, const std::string& name,
                               uint64_t size);
  static Future<Result<OpenFile>> open(Process& proc, CapId open_ep, const std::string& name,
                                       bool rw, bool dax);
  // Synchronous reads/writes against `mem` (sized >= `size`); handles DAX extent spanning.
  static Future<Status> read(Process& proc, const OpenFile& f, uint64_t off, uint64_t size,
                             CapId mem);
  static Future<Status> write(Process& proc, const OpenFile& f, uint64_t off, uint64_t size,
                              CapId mem);
  static Future<Status> close(Process& proc, const OpenFile& f);
  static Future<Status> unlink(Process& proc, CapId unlink_ep, const std::string& name);
};

}  // namespace fractos

#endif  // SRC_SERVICES_FS_H_
