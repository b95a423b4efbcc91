// Static verifier for XDP programs.
//
// Models the safety regime of the kernel verifier in the era the paper
// describes (§2.2.2): bounded program size, forward-only branches (no
// loops), typed register tracking, mandatory packet bounds proofs before
// packet memory access, and null checks before dereferencing map lookup
// results. These restrictions are exactly why the paper's all-eBPF
// datapath could not express the megaflow cache.
//
// Besides the verdict, verification yields per-instruction facts: the
// kind of base pointer each load and store was proven to go through,
// and the map each map helper call was proven to receive. load() (vm.h)
// decodes them into the program image once; the VM then checks each
// access against the proven region first. It still checks every
// access: a verifier bug (see set_test_overprove_packet_bounds) must
// end in a fault, not an unchecked read.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ebpf/program.h"

namespace ovsx::ebpf {

inline constexpr int kMaxInsns = 4096;

struct VerifyResult {
    bool ok = false;
    std::string error;      // empty when ok
    int insns = 0;          // program length
    int states_explored = 0;
    int stack_depth = 0;    // bytes below the frame pointer the program may address

    explicit operator bool() const { return ok; }
};

// The region a memory access was proven to address.
enum class MemKind : std::uint8_t { Unknown, Ctx, Stack, Packet, MapValue };
inline constexpr int kNumMemKinds = 5;

// What verification proved about one instruction. Unreachable
// instructions, and every instruction of a rejected program, keep the
// defaults.
struct InsnFacts {
    // Loads and stores: the base pointer's region. Map helper calls:
    // the region of their key and value buffers (the stack).
    MemKind mem = MemKind::Unknown;
    int map_fd = -1; // map helper calls: the fd of the map in r1
};

// Checks `prog`. When `facts` is given and the program verifies, it
// receives one entry per instruction.
VerifyResult verify(const Program& prog, std::vector<InsnFacts>* facts = nullptr);

// Test seam: seeds a verifier bug. Each packet-bounds refinement then
// proves `bytes` more than its comparison does, so a program that
// reads just past its real bound verifies. 0 restores the sound
// verifier. Test-only.
void set_test_overprove_packet_bounds(int bytes);

} // namespace ovsx::ebpf
