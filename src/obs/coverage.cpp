#include "obs/coverage.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "sync/mutex.h"

namespace ovsx::obs {

namespace {

// One thread's counts, indexed by CounterId. Only the owning thread
// writes them; readers load them under the registry mutex.
struct Cells {
    std::array<std::atomic<std::uint64_t>, kCoverageMax> counts{};
};

// Interning registry and the cell list. Lock-order leaf together with
// the other obs registries: datapath locks (ovs.*, kern.*, ebpf.*) may
// be held when a coverage macro fires, so this lock must never be held
// while calling back into datapath code.
struct Registry {
    sync::Mutex mu{"obs.coverage"};
    std::unordered_map<std::string, CounterId> ids OVSX_GUARDED_BY(mu);
    std::vector<std::string> names OVSX_GUARDED_BY(mu);
    std::vector<Cells*> live OVSX_GUARDED_BY(mu); // cells of running threads
    // Counts of threads that have exited.
    std::array<std::uint64_t, kCoverageMax> retired OVSX_GUARDED_BY(mu){};

    std::uint64_t total(CounterId id) const OVSX_REQUIRES(mu)
    {
        std::uint64_t v = retired[id];
        for (const Cells* c : live) v += c->counts[id].load(std::memory_order_relaxed);
        return v;
    }
};

// Never destroyed: thread exit and static destructors may still count
// after static destruction has begun.
Registry& reg()
{
    static Registry* const r = new Registry;
    return *r;
}

// Memory ordering: counters are pure statistics — nothing is published
// through them, and snapshot consistency across counters is not needed.
// The owner increments its cell with a relaxed load and store (no
// locked RMW: it is the only writer); readers load relaxed under the
// registry mutex, whose acquire/release orders cell registration and
// retirement against every read.
thread_local constinit Cells* t_cells = nullptr;
// Set when the thread's cells were retired at thread exit; increments
// after that (later thread_local or static destructors) add straight
// to the retired totals.
thread_local constinit bool t_exited = false;

// Owns the thread's cells and folds them into the retired totals when
// the thread exits.
struct CellsOwner {
    std::unique_ptr<Cells> cells;

    ~CellsOwner()
    {
        if (!cells) return;
        Registry& r = reg();
        sync::LockGuard lock(r.mu);
        for (std::size_t i = 0; i < kCoverageMax; ++i) {
            r.retired[i] += cells->counts[i].load(std::memory_order_relaxed);
        }
        std::erase(r.live, cells.get());
        t_cells = nullptr;
        t_exited = true;
    }
};

// The cold half of coverage_inc: the thread's first increment allocates
// and registers its cells here, outside the hot function. Never inlined,
// so the hot increment keeps a frameless body.
[[gnu::noinline, gnu::cold]] void coverage_inc_cold(CounterId id, std::uint64_t n)
{
    Registry& r = reg();
    if (t_exited) {
        sync::LockGuard lock(r.mu);
        r.retired[id] += n;
        return;
    }
    thread_local CellsOwner owner;
    owner.cells = std::make_unique<Cells>();
    owner.cells->counts[id].store(n, std::memory_order_relaxed);
    sync::LockGuard lock(r.mu);
    r.live.push_back(owner.cells.get());
    t_cells = owner.cells.get();
}

} // namespace

CounterId coverage_id(const std::string& name)
{
    Registry& r = reg();
    sync::LockGuard lock(r.mu);
    auto it = r.ids.find(name);
    if (it != r.ids.end()) return it->second;
    if (r.names.size() >= kCoverageMax) {
        throw std::runtime_error("obs: coverage counter capacity exceeded interning '" +
                                 name + "'");
    }
    const auto id = static_cast<CounterId>(r.names.size());
    r.names.push_back(name);
    r.ids.emplace(name, id);
    return id;
}

std::optional<CounterId> coverage_find(const std::string& name)
{
    Registry& r = reg();
    sync::LockGuard lock(r.mu);
    auto it = r.ids.find(name);
    if (it == r.ids.end()) return std::nullopt;
    return it->second;
}

const std::string& coverage_name(CounterId id)
{
    Registry& r = reg();
    sync::LockGuard lock(r.mu);
    static const std::string unknown = "?";
    return id < r.names.size() ? r.names[id] : unknown;
}

std::size_t coverage_registered()
{
    Registry& r = reg();
    sync::LockGuard lock(r.mu);
    return r.names.size();
}

void coverage_inc(CounterId id, std::uint64_t n)
{
    if (id >= kCoverageMax) return;
    Cells* const cells = t_cells;
    if (!cells) [[unlikely]] {
        coverage_inc_cold(id, n);
        return;
    }
    std::atomic<std::uint64_t>& c = cells->counts[id];
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

std::uint64_t coverage_value(CounterId id)
{
    if (id >= kCoverageMax) return 0;
    Registry& r = reg();
    sync::LockGuard lock(r.mu);
    return r.total(id);
}

std::vector<std::pair<std::string, std::uint64_t>> coverage_snapshot(bool include_zero)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    Registry& r = reg();
    sync::LockGuard lock(r.mu);
    out.reserve(r.names.size());
    for (std::size_t i = 0; i < r.names.size(); ++i) {
        const std::uint64_t v = r.total(static_cast<CounterId>(i));
        if (v != 0 || include_zero) out.emplace_back(r.names[i], v);
    }
    std::sort(out.begin(), out.end());
    return out;
}

void coverage_reset()
{
    Registry& r = reg();
    sync::LockGuard lock(r.mu);
    r.retired.fill(0);
    for (Cells* c : r.live) {
        for (auto& v : c->counts) v.store(0, std::memory_order_relaxed);
    }
}

} // namespace ovsx::obs
