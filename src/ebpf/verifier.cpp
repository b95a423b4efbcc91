#include "ebpf/verifier.h"

#include <algorithm>
#include <atomic>
#include <bitset>
#include <deque>
#include <optional>
#include <sstream>
#include <vector>

namespace ovsx::ebpf {

namespace {

enum class RegType : std::uint8_t {
    Uninit,
    Scalar,
    PtrCtx,            // pointer to the 32-byte xdp_md context
    PtrStack,          // fp-relative pointer; `off` is the (negative) offset
    PtrPacket,         // packet pointer; `off` is the delta from data
    PtrPacketEnd,      // the data_end sentinel
    PtrMapHandle,      // result of LoadMapFd; `map_fd` identifies the map
    PtrMapValueOrNull, // result of MapLookup before a null check
    PtrMapValue,       // proven non-null map value pointer
};

struct Reg {
    RegType type = RegType::Uninit;
    std::int64_t off = 0;
    int map_fd = -1;

    bool operator==(const Reg&) const = default;
};

constexpr int kStackSlots = kStackSize / 8;

std::atomic<int> g_test_overprove{0};

MemKind mem_kind(RegType t)
{
    switch (t) {
    case RegType::PtrCtx: return MemKind::Ctx;
    case RegType::PtrStack: return MemKind::Stack;
    case RegType::PtrPacket: return MemKind::Packet;
    case RegType::PtrMapValue: return MemKind::MapValue;
    default: return MemKind::Unknown;
    }
}

struct AbsState {
    Reg regs[kNumRegs];
    std::int64_t pkt_checked = 0; // bytes from data proven accessible
    std::bitset<kStackSlots> stack_init;

    bool operator==(const AbsState&) const = default;
};

// Conservative merge at control-flow joins; returns true when `into`
// changed.
bool merge(AbsState& into, const AbsState& from)
{
    bool changed = false;
    for (int r = 0; r < kNumRegs; ++r) {
        if (into.regs[r] == from.regs[r]) continue;
        Reg merged;
        if (into.regs[r].type == from.regs[r].type && into.regs[r].type == RegType::Scalar) {
            merged = Reg{RegType::Scalar, 0, -1};
        } else {
            merged = Reg{}; // incompatible -> unreadable
        }
        if (!(into.regs[r] == merged)) {
            into.regs[r] = merged;
            changed = true;
        }
    }
    const auto pkt = std::min(into.pkt_checked, from.pkt_checked);
    if (pkt != into.pkt_checked) {
        into.pkt_checked = pkt;
        changed = true;
    }
    const auto stack = into.stack_init & from.stack_init;
    if (stack != into.stack_init) {
        into.stack_init = stack;
        changed = true;
    }
    return changed;
}

class Verifier {
public:
    explicit Verifier(const Program& prog) : prog_(prog) {}

    VerifyResult run(std::vector<InsnFacts>* facts);

private:
    struct Failure {
        std::string msg;
    };

    [[noreturn]] void fail(int pc, const std::string& msg)
    {
        std::ostringstream os;
        os << "insn " << pc << " (" << (pc >= 0 && pc < int(prog_.insns.size())
                                            ? op_name(prog_.insns[size_t(pc)].op)
                                            : "?")
           << "): " << msg;
        throw Failure{os.str()};
    }

    const Reg& read_reg(const AbsState& st, int pc, int r)
    {
        if (r < 0 || r >= kNumRegs) fail(pc, "bad register");
        if (st.regs[r].type == RegType::Uninit) {
            fail(pc, "read of uninitialized r" + std::to_string(r));
        }
        return st.regs[r];
    }

    void write_reg(AbsState& st, int pc, int r, Reg v)
    {
        if (r < 0 || r >= kNumRegs) fail(pc, "bad register");
        if (r == R10) fail(pc, "write to frame pointer r10");
        st.regs[r] = v;
    }

    void check_mem_access(const AbsState& st, int pc, const Reg& base, std::int64_t off,
                          int size, bool write)
    {
        switch (base.type) {
        case RegType::PtrCtx:
            if (off < 0 || off + size > 32) fail(pc, "ctx access out of bounds");
            if (write) fail(pc, "ctx is read-only");
            return;
        case RegType::PtrStack: {
            const std::int64_t s = base.off + off; // negative, relative to fp
            if (s < -kStackSize || s + size > 0) fail(pc, "stack access out of bounds");
            note_stack(s);
            return;
        }
        case RegType::PtrPacket: {
            const std::int64_t start = base.off + off;
            if (start < 0) fail(pc, "negative packet offset");
            if (start + size > st.pkt_checked) {
                fail(pc, "packet access beyond verified bounds (need " +
                             std::to_string(start + size) + ", have " +
                             std::to_string(st.pkt_checked) + ")");
            }
            return;
        }
        case RegType::PtrMapValue: {
            const auto fd = static_cast<std::size_t>(base.map_fd);
            if (fd >= prog_.maps.size()) fail(pc, "bad map fd");
            const std::int64_t vs = prog_.maps[fd]->value_size();
            if (base.off + off < 0 || base.off + off + size > vs) {
                fail(pc, "map value access out of bounds");
            }
            return;
        }
        case RegType::PtrMapValueOrNull:
            fail(pc, "dereference of possibly-null map value (missing null check)");
        default:
            fail(pc, "memory access through non-pointer");
        }
    }

    // `s` (negative, relative to fp) is the lowest stack byte an access
    // in bounds addresses.
    void note_stack(std::int64_t s)
    {
        stack_depth_ = std::max(stack_depth_, static_cast<int>(-s));
    }

    void mark_stack_init(AbsState& st, int pc, const Reg& base, std::int64_t off, int size)
    {
        const std::int64_t s = base.off + off;
        if (s < -kStackSize || s + size > 0) fail(pc, "stack store out of bounds");
        // 8-byte slot granularity, like the kernel's STACK_MISC.
        const int first = static_cast<int>((s + kStackSize) / 8);
        const int last = static_cast<int>((s + kStackSize + size - 1) / 8);
        for (int i = first; i <= last && i < kStackSlots; ++i) st.stack_init.set(size_t(i));
    }

    void check_stack_read(const AbsState& st, int pc, const Reg& base, std::int64_t off,
                          int size)
    {
        const std::int64_t s = base.off + off;
        const int first = static_cast<int>((s + kStackSize) / 8);
        const int last = static_cast<int>((s + kStackSize + size - 1) / 8);
        for (int i = first; i <= last && i < kStackSlots; ++i) {
            if (!st.stack_init.test(size_t(i))) fail(pc, "read of uninitialized stack");
        }
    }

    const Map& arg_map(const AbsState& st, int pc, int reg)
    {
        const Reg& r = read_reg(st, pc, reg);
        if (r.type != RegType::PtrMapHandle) fail(pc, "helper arg is not a map handle");
        const auto fd = static_cast<std::size_t>(r.map_fd);
        if (fd >= prog_.maps.size()) fail(pc, "bad map fd");
        return *prog_.maps[fd];
    }

    void arg_stack_buffer(const AbsState& st, int pc, int reg, std::uint32_t len)
    {
        const Reg& r = read_reg(st, pc, reg);
        if (r.type != RegType::PtrStack) fail(pc, "helper buffer arg must point to stack");
        if (r.off + static_cast<std::int64_t>(len) > 0 || r.off < -kStackSize) {
            fail(pc, "helper buffer out of stack bounds");
        }
        note_stack(r.off);
        check_stack_read(st, pc, r, 0, static_cast<int>(len));
    }

    void do_call(AbsState& st, int pc, const Insn& insn)
    {
        const auto helper = static_cast<HelperId>(insn.imm);
        Reg ret{RegType::Scalar, 0, -1};
        switch (helper) {
        case HelperId::MapLookup: {
            const Map& m = arg_map(st, pc, R1);
            arg_stack_buffer(st, pc, R2, m.key_size());
            const Reg& handle = st.regs[R1];
            ret = Reg{RegType::PtrMapValueOrNull, 0, handle.map_fd};
            break;
        }
        case HelperId::MapUpdate: {
            const Map& m = arg_map(st, pc, R1);
            arg_stack_buffer(st, pc, R2, m.key_size());
            arg_stack_buffer(st, pc, R3, m.value_size());
            if (read_reg(st, pc, R4).type != RegType::Scalar) fail(pc, "flags must be scalar");
            break;
        }
        case HelperId::MapDelete: {
            const Map& m = arg_map(st, pc, R1);
            arg_stack_buffer(st, pc, R2, m.key_size());
            break;
        }
        case HelperId::XdpAdjustHead: {
            if (read_reg(st, pc, R1).type != RegType::PtrCtx) fail(pc, "r1 must be ctx");
            if (read_reg(st, pc, R2).type != RegType::Scalar) fail(pc, "r2 must be scalar");
            // All packet pointers become stale.
            for (int r = 0; r < kNumRegs; ++r) {
                if (st.regs[r].type == RegType::PtrPacket ||
                    st.regs[r].type == RegType::PtrPacketEnd) {
                    st.regs[r] = Reg{};
                }
            }
            st.pkt_checked = 0;
            break;
        }
        case HelperId::RedirectMap: {
            const Map& m = arg_map(st, pc, R1);
            if (m.type() != MapType::DevMap && m.type() != MapType::XskMap) {
                fail(pc, "redirect_map needs a devmap or xskmap");
            }
            if (read_reg(st, pc, R2).type != RegType::Scalar) fail(pc, "key must be scalar");
            if (read_reg(st, pc, R3).type != RegType::Scalar) fail(pc, "flags must be scalar");
            break;
        }
        case HelperId::KtimeGetNs:
        case HelperId::GetPrandomU32:
            break;
        case HelperId::CsumDiff:
            // Arguments loosely checked (kernel uses ARG_PTR_TO_MEM_OR_NULL).
            break;
        default:
            fail(pc, "unknown helper " + std::to_string(insn.imm));
        }
        // Calls clobber the caller-saved registers.
        for (int r = R1; r <= R5; ++r) st.regs[r] = Reg{};
        st.regs[R0] = ret;
    }

    // Applies branch-refinement for the taken/fall-through outcome of a
    // conditional jump: packet bounds proofs and map-value null checks.
    void refine(AbsState& st, const Insn& insn, bool taken)
    {
        const Reg& dst = st.regs[insn.dst];
        // Packet bounds: comparison of (pkt + k) against data_end.
        if (dst.type == RegType::PtrPacket && insn.src < kNumRegs &&
            st.regs[insn.src].type == RegType::PtrPacketEnd) {
            const bool proves =
                (insn.op == Op::JgtReg && !taken) ||  // if (p > end) goto; else: p <= end
                (insn.op == Op::JleReg && taken);     // if (p <= end) goto: proven on taken
            if (proves) {
                st.pkt_checked = std::max(
                    st.pkt_checked, dst.off + g_test_overprove.load(std::memory_order_relaxed));
            }
        }
        // Null check on map value.
        if (dst.type == RegType::PtrMapValueOrNull &&
            (insn.op == Op::JeqImm || insn.op == Op::JneImm) && insn.imm == 0) {
            const bool null_branch = (insn.op == Op::JeqImm) ? taken : !taken;
            Reg refined = st.regs[insn.dst];
            if (null_branch) {
                refined.type = RegType::Scalar; // it is NULL; treat as scalar 0
            } else {
                refined.type = RegType::PtrMapValue;
            }
            st.regs[insn.dst] = refined;
        }
    }

    void step_alu(AbsState& st, int pc, const Insn& insn);

    // Reads the proven facts off the fixpoint: the state at each pc is
    // the join over every path reaching it, so a base register's type
    // there holds on all of them.
    void record_facts(const std::vector<std::optional<AbsState>>& states,
                      std::vector<InsnFacts>& facts) const
    {
        facts.assign(prog_.insns.size(), InsnFacts{});
        for (std::size_t pc = 0; pc < prog_.insns.size(); ++pc) {
            if (!states[pc]) continue;
            const Insn& insn = prog_.insns[pc];
            const AbsState& st = *states[pc];
            if (is_load(insn.op)) facts[pc].mem = mem_kind(st.regs[insn.src].type);
            if (is_store(insn.op)) facts[pc].mem = mem_kind(st.regs[insn.dst].type);
            if (insn.op == Op::Call && st.regs[R1].type == RegType::PtrMapHandle) {
                facts[pc].map_fd = st.regs[R1].map_fd;
                const auto helper = static_cast<HelperId>(insn.imm);
                if (helper == HelperId::MapLookup || helper == HelperId::MapUpdate ||
                    helper == HelperId::MapDelete) {
                    facts[pc].mem = MemKind::Stack;
                }
            }
        }
    }

    const Program& prog_;
    int states_explored_ = 0;
    int stack_depth_ = 0;
};

void Verifier::step_alu(AbsState& st, int pc, const Insn& insn)
{
    auto scalar = Reg{RegType::Scalar, 0, -1};
    switch (insn.op) {
    case Op::MovImm:
    case Op::Mov32Imm:
        write_reg(st, pc, insn.dst, scalar);
        break;
    case Op::MovReg:
    case Op::Mov32Reg:
        write_reg(st, pc, insn.dst, read_reg(st, pc, insn.src));
        break;
    case Op::AddImm: {
        Reg r = read_reg(st, pc, insn.dst);
        if (r.type == RegType::PtrPacket || r.type == RegType::PtrStack ||
            r.type == RegType::PtrMapValue) {
            r.off += insn.imm;
            write_reg(st, pc, insn.dst, r);
        } else if (r.type == RegType::Scalar) {
            write_reg(st, pc, insn.dst, scalar);
        } else {
            fail(pc, "pointer arithmetic on unsupported type");
        }
        break;
    }
    case Op::AddReg: {
        Reg d = read_reg(st, pc, insn.dst);
        const Reg& s = read_reg(st, pc, insn.src);
        if (d.type == RegType::Scalar && s.type == RegType::Scalar) {
            write_reg(st, pc, insn.dst, scalar);
        } else if (d.type == RegType::PtrPacket && s.type == RegType::Scalar) {
            // Variable packet offset: unknown delta forfeits the proof.
            d.off = 0;
            write_reg(st, pc, insn.dst, d);
            st.pkt_checked = 0;
        } else {
            fail(pc, "add of incompatible types");
        }
        break;
    }
    case Op::SubReg: {
        const Reg& d = read_reg(st, pc, insn.dst);
        const Reg& s = read_reg(st, pc, insn.src);
        if (d.type == RegType::Scalar && s.type == RegType::Scalar) {
            write_reg(st, pc, insn.dst, scalar);
        } else if (d.type == s.type) {
            write_reg(st, pc, insn.dst, scalar); // ptr - ptr = scalar
        } else {
            fail(pc, "sub of incompatible types");
        }
        break;
    }
    default: {
        // Remaining ALU ops require scalar operands and produce scalars.
        const Reg& d = read_reg(st, pc, insn.dst);
        if (d.type != RegType::Scalar) fail(pc, "ALU on non-scalar");
        switch (insn.op) {
        case Op::SubImm: case Op::MulReg: case Op::MulImm: case Op::DivReg: case Op::DivImm:
        case Op::ModReg: case Op::ModImm: case Op::AndReg: case Op::AndImm: case Op::OrReg:
        case Op::OrImm: case Op::XorReg: case Op::XorImm: case Op::LshReg: case Op::LshImm:
        case Op::RshReg: case Op::RshImm: case Op::ArshImm: case Op::Neg: case Op::Add32Reg:
        case Op::Add32Imm: case Op::And32Imm: case Op::Be16: case Op::Be32: case Op::Be64: {
            const bool has_src_reg = insn.op == Op::MulReg || insn.op == Op::DivReg ||
                                     insn.op == Op::ModReg || insn.op == Op::AndReg ||
                                     insn.op == Op::OrReg || insn.op == Op::XorReg ||
                                     insn.op == Op::LshReg || insn.op == Op::RshReg ||
                                     insn.op == Op::Add32Reg;
            if (has_src_reg && read_reg(st, pc, insn.src).type != RegType::Scalar) {
                fail(pc, "ALU src must be scalar");
            }
            write_reg(st, pc, insn.dst, scalar);
            break;
        }
        default:
            fail(pc, "unhandled ALU op");
        }
    }
    }
}

VerifyResult Verifier::run(std::vector<InsnFacts>* facts)
{
    VerifyResult res;
    const int n = static_cast<int>(prog_.insns.size());
    res.insns = n;
    if (n == 0) {
        res.error = "empty program";
        return res;
    }
    if (n > kMaxInsns) {
        res.error = "program too large (" + std::to_string(n) + " insns)";
        return res;
    }

    try {
        // Structural pass: jump targets in range and strictly forward.
        for (int pc = 0; pc < n; ++pc) {
            const Insn& insn = prog_.insns[size_t(pc)];
            if (is_jump(insn.op)) {
                const int target = pc + 1 + insn.off;
                if (target <= pc) fail(pc, "back-edge (loops are not allowed)");
                if (target >= n) fail(pc, "jump out of bounds");
            }
            if (insn.op == Op::LoadMapFd &&
                (insn.imm < 0 || insn.imm >= static_cast<std::int64_t>(prog_.maps.size()))) {
                fail(pc, "LoadMapFd references unknown map");
            }
        }

        // Abstract interpretation with state merging at joins.
        std::vector<std::optional<AbsState>> states(static_cast<std::size_t>(n));
        AbsState entry;
        entry.regs[R1] = Reg{RegType::PtrCtx, 0, -1};
        entry.regs[R10] = Reg{RegType::PtrStack, 0, -1};
        states[0] = entry;
        std::deque<int> work{0};

        auto propagate = [&](int target, const AbsState& st) {
            auto& slot = states[static_cast<std::size_t>(target)];
            if (!slot) {
                slot = st;
                work.push_back(target);
            } else if (merge(*slot, st)) {
                work.push_back(target);
            }
        };

        while (!work.empty()) {
            const int pc = work.front();
            work.pop_front();
            ++states_explored_;
            if (states_explored_ > 200000) fail(pc, "verification state explosion");
            AbsState st = *states[static_cast<std::size_t>(pc)];
            const Insn& insn = prog_.insns[size_t(pc)];

            if (insn.op == Op::Exit) {
                if (st.regs[R0].type != RegType::Scalar) {
                    fail(pc, "exit with non-scalar r0");
                }
                continue;
            }
            if (insn.op == Op::Call) {
                do_call(st, pc, insn);
                if (pc + 1 >= n) fail(pc, "fall off end after call");
                propagate(pc + 1, st);
                continue;
            }
            if (insn.op == Op::LoadMapFd) {
                write_reg(st, pc, insn.dst,
                          Reg{RegType::PtrMapHandle, 0, static_cast<int>(insn.imm)});
                if (pc + 1 >= n) fail(pc, "fall off end");
                propagate(pc + 1, st);
                continue;
            }
            if (is_load(insn.op)) {
                const Reg& base = read_reg(st, pc, insn.src);
                check_mem_access(st, pc, base, insn.off, access_size(insn.op), false);
                if (base.type == RegType::PtrStack) {
                    check_stack_read(st, pc, base, insn.off, access_size(insn.op));
                }
                Reg loaded{RegType::Scalar, 0, -1};
                // Loading the packet pointers out of the context yields
                // typed pointers — this is how programs obtain data/data_end.
                if (base.type == RegType::PtrCtx && insn.op == Op::LdxDW) {
                    if (insn.off == 0) loaded = Reg{RegType::PtrPacket, 0, -1};
                    else if (insn.off == 8) loaded = Reg{RegType::PtrPacketEnd, 0, -1};
                }
                write_reg(st, pc, insn.dst, loaded);
                if (pc + 1 >= n) fail(pc, "fall off end");
                propagate(pc + 1, st);
                continue;
            }
            if (is_store(insn.op)) {
                const Reg& base = read_reg(st, pc, insn.dst);
                const bool reg_store = insn.op == Op::StxB || insn.op == Op::StxH ||
                                       insn.op == Op::StxW || insn.op == Op::StxDW;
                if (reg_store) (void)read_reg(st, pc, insn.src);
                check_mem_access(st, pc, base, insn.off, access_size(insn.op), true);
                if (base.type == RegType::PtrStack) {
                    mark_stack_init(st, pc, base, insn.off, access_size(insn.op));
                }
                if (pc + 1 >= n) fail(pc, "fall off end");
                propagate(pc + 1, st);
                continue;
            }
            if (insn.op == Op::Ja) {
                propagate(pc + 1 + insn.off, st);
                continue;
            }
            if (is_jump(insn.op)) {
                (void)read_reg(st, pc, insn.dst);
                const bool reg_cmp = insn.op == Op::JeqReg || insn.op == Op::JneReg ||
                                     insn.op == Op::JgtReg || insn.op == Op::JgeReg ||
                                     insn.op == Op::JltReg || insn.op == Op::JleReg;
                if (reg_cmp) (void)read_reg(st, pc, insn.src);
                AbsState taken = st;
                AbsState fall = st;
                refine(taken, insn, true);
                refine(fall, insn, false);
                propagate(pc + 1 + insn.off, taken);
                if (pc + 1 >= n) fail(pc, "fall off end");
                propagate(pc + 1, fall);
                continue;
            }
            // Plain ALU.
            step_alu(st, pc, insn);
            if (pc + 1 >= n) fail(pc, "fall off end");
            propagate(pc + 1, st);
        }

        res.ok = true;
        res.states_explored = states_explored_;
        res.stack_depth = stack_depth_;
        if (facts) record_facts(states, *facts);
    } catch (const Failure& f) {
        res.error = f.msg;
    }
    return res;
}

} // namespace

VerifyResult verify(const Program& prog, std::vector<InsnFacts>* facts)
{
    Verifier v(prog);
    return v.run(facts);
}

void set_test_overprove_packet_bounds(int bytes)
{
    g_test_overprove.store(bytes, std::memory_order_relaxed);
}

} // namespace ovsx::ebpf
