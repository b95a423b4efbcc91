// eBPF virtual machine (interpreter).
//
// A program runs in two steps, as on Linux. load() verifies it once
// and decodes it into an immutable Image: jump targets made absolute
// (an out-of-range target, or falling off the end, reaches a sentinel
// that faults), map fds resolved to Map*, register numbers validated
// (a bad one decodes to a faulting instruction), and for every load
// and store the base-pointer kind the verifier proved (Unknown when the
// program did not verify). Attach points hold the Image; Vm::run_xdp()
// executes it as many times as packets arrive.
//
// Every load and store is still checked at run time. The proven kind
// selects one region (ctx, stack, packet, or the latest map value), so
// the common check is a single O(1) compare; a miss falls through to
// the full check over every region the run can address, which faults
// exactly as before. A verifier bug therefore ends in an Aborted run,
// never in an unchecked access. A run allocates nothing on the heap:
// the ctx and the stack are part of the interpreter's frame, and map
// values found by lookups are tracked in an inline array. Like the
// kernel's, the stack a run zeroes and exposes is the depth the
// verifier proved the program uses (all 512 bytes when unverified).
//
// Per-instruction cost accounting feeds the virtual-time model (the
// "sandboxed bytecode runs slower than C" effect from Fig. 2 /
// Takeaway #4); loading does not change what a run charges.
#pragma once

#include <cstdint>
#include <span>

#include "ebpf/program.h"
#include "ebpf/verifier.h"
#include "ebpf/xdp.h"
#include "net/packet.h"
#include "sim/costs.h"
#include "sync/annotations.h"

namespace ovsx::ebpf {

struct RunResult {
    XdpAction action = XdpAction::Aborted;
    std::uint64_t ret = 0;            // raw r0
    std::uint64_t insns = 0;          // instructions retired
    std::uint64_t helper_calls = 0;
    std::uint64_t map_lookups = 0;
    bool touched_packet = false;      // program read/wrote packet bytes (cold-cache cost)
    sim::Nanos cost = 0;              // virtual cost of this execution
    // Valid when action == Redirect:
    Map* redirect_map = nullptr;
    std::uint32_t redirect_key = 0;
    std::string fault; // non-empty when action == Aborted
};

// Instructions that cannot execute, decoded as an Exit carrying a trap.
enum class Trap : std::uint8_t {
    None,
    FellOff,     // the sentinel past the last instruction; not retired
    BadRegister, // a register operand >= kNumRegs
    BadMapFd,    // LoadMapFd of an fd the program does not have
};

// One decoded instruction. Register fields the op does not use are 0.
struct DecodedInsn {
    Op op = Op::Exit;
    std::uint8_t dst = 0;
    std::uint8_t src = 0;
    MemKind mem = MemKind::Unknown; // loads, stores, map helper buffers
    std::int16_t off = 0;           // memory displacement
    Trap trap = Trap::None;
    std::uint32_t target = 0; // jumps: absolute index of the taken successor
    std::int64_t imm = 0;
    Map* map = nullptr; // LoadMapFd: the map; map helper calls: the proven r1
};

// A loaded program: immutable, shareable, and owning its maps.
class Image {
public:
    // An empty program: running it faults at the sentinel.
    Image();

    // The verifier's verdict at load time.
    const VerifyResult& verdict() const { return verdict_; }
    bool verified() const { return verdict_.ok; }
    // The decoded instructions followed by the fall-off sentinel.
    std::span<const DecodedInsn> code() const { return code_; }
    // Bytes below the frame pointer a run zeroes and lets the program
    // address: the verifier's proven depth, or the whole stack when the
    // program did not verify.
    int stack_depth() const { return stack_depth_; }
    const std::vector<MapPtr>& maps() const { return maps_; }

private:
    friend Image load(const Program& prog);

    std::vector<DecodedInsn> code_;
    std::vector<MapPtr> maps_;
    VerifyResult verdict_;
    int stack_depth_ = kStackSize;
};

// Verifies and decodes `prog`. A program that fails verification still
// loads (with its verdict, and every access of Unknown kind), so
// callers decide whether to attach it; the VM runs it fully checked.
Image load(const Program& prog);

class Vm {
public:
    explicit Vm(const sim::CostModel& costs = sim::CostModel::baseline()) : costs_(costs) {}

    // Runs `image` as an XDP program over `pkt`. The program may rewrite
    // packet bytes and adjust the head (encap/decap). Any memory
    // violation returns Aborted with a fault message.
    OVSX_HOT RunResult run_xdp(const Image& image, net::Packet& pkt, std::uint32_t ifindex = 0,
                               std::uint32_t rx_queue = 0);

    // Loads `prog`, then runs it: for tests and one-off runs.
    RunResult run_xdp(const Program& prog, net::Packet& pkt, std::uint32_t ifindex = 0,
                      std::uint32_t rx_queue = 0);

private:
    const sim::CostModel& costs_;
};

} // namespace ovsx::ebpf
