#include "ebpf/vm.h"

#include <cstring>
#include <vector>

namespace ovsx::ebpf {

const char* to_string(XdpAction a)
{
    switch (a) {
    case XdpAction::Aborted: return "XDP_ABORTED";
    case XdpAction::Drop: return "XDP_DROP";
    case XdpAction::Pass: return "XDP_PASS";
    case XdpAction::Tx: return "XDP_TX";
    case XdpAction::Redirect: return "XDP_REDIRECT";
    }
    return "?";
}

namespace {

// ---- decoding ---------------------------------------------------------

// Register operands each op reads or writes; the others are ignored.
bool uses_dst(Op op) { return op != Op::Ja && op != Op::Call && op != Op::Exit; }

bool uses_src(Op op)
{
    switch (op) {
    case Op::AddReg: case Op::SubReg: case Op::MulReg: case Op::DivReg: case Op::ModReg:
    case Op::AndReg: case Op::OrReg: case Op::XorReg: case Op::LshReg: case Op::RshReg:
    case Op::MovReg: case Op::Mov32Reg: case Op::Add32Reg:
    case Op::LdxB: case Op::LdxH: case Op::LdxW: case Op::LdxDW:
    case Op::StxB: case Op::StxH: case Op::StxW: case Op::StxDW:
    case Op::JeqReg: case Op::JneReg: case Op::JgtReg: case Op::JgeReg: case Op::JltReg:
    case Op::JleReg:
        return true;
    default:
        return false;
    }
}

DecodedInsn trap(Trap t)
{
    DecodedInsn d;
    d.op = Op::Exit;
    d.trap = t;
    return d;
}

const char* trap_message(Trap t)
{
    switch (t) {
    case Trap::None: break;
    case Trap::FellOff: return "pc out of bounds";
    case Trap::BadRegister: return "bad register";
    case Trap::BadMapFd: return "bad map fd";
    }
    return "trap";
}

DecodedInsn decode(const Program& prog, std::size_t pc, const InsnFacts& facts)
{
    const Insn& in = prog.insns[pc];
    const std::size_t n = prog.insns.size();
    const bool dst = uses_dst(in.op);
    const bool src = uses_src(in.op);
    if ((dst && in.dst >= kNumRegs) || (src && in.src >= kNumRegs)) {
        return trap(Trap::BadRegister);
    }
    DecodedInsn d;
    d.op = in.op;
    d.dst = dst ? in.dst : 0;
    d.src = src ? in.src : 0;
    d.mem = facts.mem;
    d.off = in.off;
    d.imm = in.imm;
    if (is_jump(in.op)) {
        const auto target = static_cast<std::int64_t>(pc) + 1 + in.off;
        const bool in_range = target >= 0 && target < static_cast<std::int64_t>(n);
        d.target = static_cast<std::uint32_t>(in_range ? static_cast<std::size_t>(target) : n);
    } else if (in.op == Op::LoadMapFd) {
        if (in.imm < 0 || in.imm >= static_cast<std::int64_t>(prog.maps.size())) {
            return trap(Trap::BadMapFd);
        }
        d.map = prog.maps[static_cast<std::size_t>(in.imm)].get();
    } else if (in.op == Op::Call && facts.map_fd >= 0) {
        d.map = prog.maps[static_cast<std::size_t>(facts.map_fd)].get();
    }
    return d;
}

// ---- execution -----------------------------------------------------------

// Hard runtime bound: verified programs are loop-free so cannot exceed
// their own length, but unverified test programs might.
constexpr std::uint64_t kInsnBudget = 1u << 20;
// Map values a run tracks without touching the heap. Verified programs
// do a handful of lookups; only an unverified looping one needs more.
constexpr std::size_t kInlineValueRegions = 16;

std::uint64_t addr_of(const void* p) { return reinterpret_cast<std::uint64_t>(p); }

struct Fault {
    const char* msg;
};

[[noreturn]] [[gnu::cold]] void fault(const char* msg) { throw Fault{msg}; }

// An addressable byte range [begin, end). The containment test cannot
// wrap: neither addr + size nor any other sum is formed.
struct Region {
    std::uint64_t begin;
    std::uint64_t end;
    bool writable;

    bool contains(std::uint64_t addr, std::uint64_t size) const
    {
        return addr >= begin && addr <= end && size <= end - addr;
    }
};

constexpr Region kNoRegion{~std::uint64_t{0}, 0, false}; // contains nothing

class Machine {
public:
    Machine(const Image& image, net::Packet& pkt, std::uint32_t ifindex, std::uint32_t queue,
            const sim::CostModel& costs)
        : image_(image), pkt_(pkt), costs_(costs)
    {
        md_.ingress_ifindex = ifindex;
        md_.rx_queue_index = queue;
        const auto depth = static_cast<std::size_t>(image.stack_depth());
        std::memset(stack_ + kStackSize - depth, 0, depth);
        region(MemKind::Unknown) = kNoRegion;
        region(MemKind::Ctx) = {addr_of(&md_), addr_of(&md_) + sizeof md_, false};
        region(MemKind::Stack) = {addr_of(stack_) + kStackSize - depth,
                                  addr_of(stack_) + kStackSize, true};
        region(MemKind::MapValue) = kNoRegion;
        sync_packet_region();
        regs_[R1] = addr_of(&md_);
        regs_[R10] = addr_of(stack_) + kStackSize; // fp points one past the stack top
    }

    RunResult run();

private:
    Region& region(MemKind kind) { return regions_[static_cast<std::size_t>(kind)]; }

    void sync_packet_region()
    {
        md_.data = addr_of(pkt_.data());
        md_.data_end = md_.data + pkt_.size();
        region(MemKind::Packet) = {md_.data, md_.data_end, true};
    }

    // The check every access takes: one compare against the region its
    // base pointer was proven to address (for MapValue, the value the
    // latest successful lookup returned). A miss, or an Unknown kind,
    // runs the full check.
    void check(std::uint64_t addr, std::uint64_t size, MemKind kind, bool write)
    {
        const Region& r = regions_[static_cast<std::size_t>(kind)];
        if (r.contains(addr, size) && (r.writable || !write)) [[likely]] {
            if (kind == MemKind::Packet) touched_packet_ = true;
            return;
        }
        check_all(addr, size, write);
    }

    // The full check: the packet, the ctx, the stack, then every map
    // value this run looked up. The regions never overlap, so the order
    // only decides which is tried first.
    [[gnu::noinline]] void check_all(std::uint64_t addr, std::uint64_t size, bool write)
    {
        if (region(MemKind::Packet).contains(addr, size)) {
            touched_packet_ = true;
            return;
        }
        for (const MemKind kind : {MemKind::Ctx, MemKind::Stack}) {
            const Region& r = region(kind);
            if (r.contains(addr, size)) {
                if (write && !r.writable) fault("write to read-only region");
                return;
            }
        }
        for (std::size_t i = 0; i < n_values_; ++i) {
            const Region& r = i < kInlineValueRegions ? values_[i]
                                                      : more_values_[i - kInlineValueRegions];
            if (r.contains(addr, size)) return;
        }
        fault("out-of-bounds memory access");
    }

    template <int N> std::uint64_t load(std::uint64_t addr, MemKind kind)
    {
        check(addr, N, kind, false);
        std::uint64_t v = 0;
        std::memcpy(&v, reinterpret_cast<const void*>(addr), N);
        return v;
    }

    template <int N> void store(std::uint64_t addr, std::uint64_t v, MemKind kind)
    {
        check(addr, N, kind, true);
        std::memcpy(reinterpret_cast<void*>(addr), &v, N);
    }

    void note_map_value(const std::uint8_t* value, std::uint32_t size)
    {
        const Region r{addr_of(value), addr_of(value) + size, true};
        region(MemKind::MapValue) = r;
        if (n_values_ < kInlineValueRegions) {
            values_[n_values_] = r;
        } else {
            more_values_.push_back(r);
        }
        ++n_values_;
    }

    // `proven` is the map the verifier proved r1 holds at this call;
    // any other handle is looked up among the program's maps.
    Map* map_from_handle(std::uint64_t handle, Map* proven)
    {
        if (proven && handle == addr_of(proven)) return proven;
        for (const auto& m : image_.maps()) {
            if (addr_of(m.get()) == handle) return m.get();
        }
        fault("bad map handle");
    }

    std::span<const std::uint8_t> key_span(std::uint64_t addr, std::uint32_t len, MemKind kind)
    {
        check(addr, len, kind, false);
        return {reinterpret_cast<const std::uint8_t*>(addr), len};
    }

    // Out of line, so the helper bodies leave run()'s dispatch loop its
    // registers.
    [[gnu::noinline]] void do_call(const DecodedInsn& in, RunResult& res)
    {
        ++res.helper_calls;
        res.cost += costs_.ebpf_helper_call;
        switch (static_cast<HelperId>(in.imm)) {
        case HelperId::MapLookup: {
            Map* m = map_from_handle(regs_[R1], in.map);
            ++res.map_lookups;
            res.cost += costs_.ebpf_map_lookup;
            auto* v = m->lookup(key_span(regs_[R2], m->key_size(), in.mem));
            if (v) {
                regs_[R0] = addr_of(v);
                note_map_value(v, m->value_size());
            } else {
                regs_[R0] = 0;
            }
            break;
        }
        case HelperId::MapUpdate: {
            Map* m = map_from_handle(regs_[R1], in.map);
            res.cost += costs_.ebpf_map_lookup;
            const bool ok = m->update(key_span(regs_[R2], m->key_size(), in.mem),
                                      key_span(regs_[R3], m->value_size(), in.mem));
            regs_[R0] = ok ? 0 : static_cast<std::uint64_t>(-1);
            break;
        }
        case HelperId::MapDelete: {
            Map* m = map_from_handle(regs_[R1], in.map);
            res.cost += costs_.ebpf_map_lookup;
            regs_[R0] = m->erase(key_span(regs_[R2], m->key_size(), in.mem))
                            ? 0
                            : static_cast<std::uint64_t>(-1);
            break;
        }
        case HelperId::XdpAdjustHead: {
            const auto delta = static_cast<std::int64_t>(regs_[R2]);
            try {
                if (delta < 0) {
                    pkt_.push_front(static_cast<std::size_t>(-delta));
                } else if (delta > 0) {
                    if (static_cast<std::size_t>(delta) >= pkt_.size()) throw Fault{"adjust_head"};
                    pkt_.pull_front(static_cast<std::size_t>(delta));
                }
                sync_packet_region();
                regs_[R0] = 0;
            } catch (...) {
                regs_[R0] = static_cast<std::uint64_t>(-1);
            }
            break;
        }
        case HelperId::RedirectMap: {
            // Kernel semantics: returns XDP_REDIRECT when the slot holds a
            // target, otherwise the `flags` argument (commonly XDP_ABORTED
            // or XDP_PASS as a fallback action).
            Map* m = map_from_handle(regs_[R1], in.map);
            const auto key = static_cast<std::uint32_t>(regs_[R2]);
            std::uint32_t target = 0;
            if (auto v = m->lookup_kv<std::uint32_t>(key)) target = *v;
            if (target != 0) {
                redirect_map_ = m;
                redirect_key_ = key;
                regs_[R0] = static_cast<std::uint64_t>(XdpAction::Redirect);
            } else {
                regs_[R0] = regs_[R3];
            }
            break;
        }
        case HelperId::KtimeGetNs:
            regs_[R0] = 0;
            break;
        case HelperId::GetPrandomU32:
            prandom_ = prandom_ * 6364136223846793005ULL + 1442695040888963407ULL;
            regs_[R0] = static_cast<std::uint32_t>(prandom_ >> 33);
            break;
        case HelperId::CsumDiff: {
            // Simplified: 1's-complement sum over the `to` buffer. The
            // verifier proves nothing about these arguments, so the
            // buffer takes the full check, with the program's 32-bit
            // length as an unsigned size.
            const std::uint64_t addr = regs_[R3];
            const auto len = static_cast<std::uint32_t>(regs_[R4]);
            check_all(addr, len, false);
            std::uint32_t sum = static_cast<std::uint32_t>(regs_[R5]);
            const auto* p = reinterpret_cast<const std::uint8_t*>(addr);
            for (std::uint32_t i = 0; i + 1 < len; i += 2) {
                sum += (static_cast<std::uint32_t>(p[i]) << 8) | p[i + 1];
            }
            res.cost += costs_.csum(len);
            regs_[R0] = sum;
            break;
        }
        default:
            fault("unknown helper");
        }
    }

    const Image& image_;
    net::Packet& pkt_;
    const sim::CostModel& costs_;
    XdpMd md_;
    // Only the top stack_depth() bytes are zeroed and addressable.
    alignas(8) std::uint8_t stack_[kStackSize];
    std::uint64_t regs_[kNumRegs] = {};
    Region regions_[kNumMemKinds]; // indexed by MemKind
    Region values_[kInlineValueRegions]; // the first n_values_ are set
    std::vector<Region> more_values_; // past kInlineValueRegions lookups
    std::size_t n_values_ = 0;
    Map* redirect_map_ = nullptr;
    std::uint32_t redirect_key_ = 0;
    bool touched_packet_ = false;
    std::uint64_t prandom_ = 0x853c49e6748fea9bULL;
};

RunResult Machine::run()
{
    RunResult res;
    const DecodedInsn* const code = image_.code().data();
    const DecodedInsn* next = code;
    std::uint64_t insns = 0; // retired; copied into res when the run ends

    try {
        while (true) {
            const DecodedInsn& in = *next++;
            if (insns >= kInsnBudget) [[unlikely]] {
                fault(in.trap == Trap::FellOff ? "pc out of bounds"
                                               : "instruction budget exceeded");
            }
            ++insns;
            std::uint64_t& dst = regs_[in.dst];
            const std::uint64_t src = regs_[in.src];
            const auto imm = static_cast<std::uint64_t>(in.imm);

            switch (in.op) {
            case Op::AddReg: dst += src; break;
            case Op::AddImm: dst += imm; break;
            case Op::SubReg: dst -= src; break;
            case Op::SubImm: dst -= imm; break;
            case Op::MulReg: dst *= src; break;
            case Op::MulImm: dst *= imm; break;
            case Op::DivReg: dst = src ? dst / src : 0; break;
            case Op::DivImm: dst = imm ? dst / imm : 0; break;
            case Op::ModReg: dst = src ? dst % src : dst; break;
            case Op::ModImm: dst = imm ? dst % imm : dst; break;
            case Op::AndReg: dst &= src; break;
            case Op::AndImm: dst &= imm; break;
            case Op::OrReg: dst |= src; break;
            case Op::OrImm: dst |= imm; break;
            case Op::XorReg: dst ^= src; break;
            case Op::XorImm: dst ^= imm; break;
            case Op::LshReg: dst <<= (src & 63); break;
            case Op::LshImm: dst <<= (imm & 63); break;
            case Op::RshReg: dst >>= (src & 63); break;
            case Op::RshImm: dst >>= (imm & 63); break;
            case Op::ArshImm:
                dst = static_cast<std::uint64_t>(static_cast<std::int64_t>(dst) >> (imm & 63));
                break;
            case Op::Neg: dst = static_cast<std::uint64_t>(-static_cast<std::int64_t>(dst)); break;
            case Op::MovReg: dst = src; break;
            case Op::MovImm: dst = imm; break;
            case Op::Mov32Reg: dst = static_cast<std::uint32_t>(src); break;
            case Op::Mov32Imm: dst = static_cast<std::uint32_t>(imm); break;
            case Op::Add32Reg: dst = static_cast<std::uint32_t>(dst + src); break;
            case Op::Add32Imm: dst = static_cast<std::uint32_t>(dst + imm); break;
            case Op::And32Imm: dst = static_cast<std::uint32_t>(dst & imm); break;
            case Op::Be16: {
                const auto v = static_cast<std::uint16_t>(dst);
                dst = static_cast<std::uint16_t>((v << 8) | (v >> 8));
                break;
            }
            case Op::Be32: {
                auto v = static_cast<std::uint32_t>(dst);
                v = ((v & 0xffU) << 24) | ((v & 0xff00U) << 8) | ((v >> 8) & 0xff00U) | (v >> 24);
                dst = v;
                break;
            }
            case Op::Be64: {
                std::uint64_t v = dst;
                v = ((v & 0x00000000000000ffULL) << 56) | ((v & 0x000000000000ff00ULL) << 40) |
                    ((v & 0x0000000000ff0000ULL) << 24) | ((v & 0x00000000ff000000ULL) << 8) |
                    ((v & 0x000000ff00000000ULL) >> 8) | ((v & 0x0000ff0000000000ULL) >> 24) |
                    ((v & 0x00ff000000000000ULL) >> 40) | (v >> 56);
                dst = v;
                break;
            }
            case Op::LdxB: dst = load<1>(src + in.off, in.mem); break;
            case Op::LdxH: dst = load<2>(src + in.off, in.mem); break;
            case Op::LdxW: dst = load<4>(src + in.off, in.mem); break;
            case Op::LdxDW: dst = load<8>(src + in.off, in.mem); break;
            case Op::StxB: store<1>(dst + in.off, src, in.mem); break;
            case Op::StxH: store<2>(dst + in.off, src, in.mem); break;
            case Op::StxW: store<4>(dst + in.off, src, in.mem); break;
            case Op::StxDW: store<8>(dst + in.off, src, in.mem); break;
            case Op::StB: store<1>(dst + in.off, imm, in.mem); break;
            case Op::StH: store<2>(dst + in.off, imm, in.mem); break;
            case Op::StW: store<4>(dst + in.off, imm, in.mem); break;
            case Op::StDW: store<8>(dst + in.off, imm, in.mem); break;
            case Op::LoadMapFd: dst = addr_of(in.map); break;
            case Op::Ja: next = code + in.target; break;
            case Op::JeqReg: if (dst == src) next = code + in.target; break;
            case Op::JeqImm: if (dst == imm) next = code + in.target; break;
            case Op::JneReg: if (dst != src) next = code + in.target; break;
            case Op::JneImm: if (dst != imm) next = code + in.target; break;
            case Op::JgtReg: if (dst > src) next = code + in.target; break;
            case Op::JgtImm: if (dst > imm) next = code + in.target; break;
            case Op::JgeReg: if (dst >= src) next = code + in.target; break;
            case Op::JgeImm: if (dst >= imm) next = code + in.target; break;
            case Op::JltReg: if (dst < src) next = code + in.target; break;
            case Op::JltImm: if (dst < imm) next = code + in.target; break;
            case Op::JleReg: if (dst <= src) next = code + in.target; break;
            case Op::JleImm: if (dst <= imm) next = code + in.target; break;
            case Op::JsgtImm:
                if (static_cast<std::int64_t>(dst) > in.imm) next = code + in.target;
                break;
            case Op::JsetImm: if (dst & imm) next = code + in.target; break;
            case Op::Call:
                do_call(in, res);
                break;
            case Op::Exit: {
                if (in.trap != Trap::None) [[unlikely]] {
                    if (in.trap == Trap::FellOff) --insns; // not an instruction
                    fault(trap_message(in.trap));
                }
                res.insns = insns;
                res.ret = regs_[R0];
                const auto action = static_cast<std::uint32_t>(regs_[R0]);
                res.action = action <= 4 ? static_cast<XdpAction>(action) : XdpAction::Aborted;
                res.redirect_map = redirect_map_;
                res.redirect_key = redirect_key_;
                res.touched_packet = touched_packet_;
                res.cost += static_cast<sim::Nanos>(static_cast<double>(res.insns) *
                                                    costs_.ebpf_insn);
                return res;
            }
            }
        }
    } catch (const Fault& f) {
        res.insns = insns;
        res.action = XdpAction::Aborted;
        res.fault = f.msg;
        res.cost += static_cast<sim::Nanos>(static_cast<double>(res.insns) * costs_.ebpf_insn);
        return res;
    }
}

} // namespace

Image::Image() : code_{trap(Trap::FellOff)} {}

Image load(const Program& prog)
{
    Image image;
    image.maps_ = prog.maps;
    std::vector<InsnFacts> facts;
    image.verdict_ = verify(prog, &facts);
    image.stack_depth_ = image.verdict_.ok ? image.verdict_.stack_depth : kStackSize;
    facts.resize(prog.insns.size()); // a rejected program proves nothing
    image.code_.clear();
    image.code_.reserve(prog.insns.size() + 1);
    for (std::size_t pc = 0; pc < prog.insns.size(); ++pc) {
        image.code_.push_back(decode(prog, pc, facts[pc]));
    }
    image.code_.push_back(trap(Trap::FellOff));
    return image;
}

RunResult Vm::run_xdp(const Image& image, net::Packet& pkt, std::uint32_t ifindex,
                      std::uint32_t rx_queue)
{
    Machine m(image, pkt, ifindex, rx_queue, costs_);
    return m.run();
}

RunResult Vm::run_xdp(const Program& prog, net::Packet& pkt, std::uint32_t ifindex,
                      std::uint32_t rx_queue)
{
    return run_xdp(load(prog), pkt, ifindex, rx_queue);
}

} // namespace ovsx::ebpf
