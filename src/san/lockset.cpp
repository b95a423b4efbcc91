#include "san/lockset.h"

#include <algorithm>
#include <atomic>
#include <mutex> // raw on purpose: sync::Mutex calls back into this checker (ovsx_lint suppression)
#include <unordered_map>
#include <unordered_set>

#include "sync/mutex.h"

namespace ovsx::san::lockset {

namespace {

struct HeldLock {
    std::uint32_t id = 0;
    const char* name = "?";
    bool exclusive = true;
};

enum class ObjState : std::uint8_t { Virgin, Exclusive, Shared, SharedModified };

struct TrackedObject {
    const char* name = "?";
    ObjState state = ObjState::Virgin;
    std::uint32_t owner = 0;               // Exclusive-phase thread
    std::vector<std::uint32_t> candidates; // C(obj), sorted lock ids
    bool reported = false;
};

// One raw mutex guards all checker state. It must NOT be a sync::Mutex:
// sync::Mutex::lock() calls back into on_acquire(), which would recurse
// straight into this lock.
struct State {
    std::mutex mu;
    std::unordered_map<std::uint32_t, std::vector<HeldLock>> held; // by logical tid
    std::unordered_map<std::uint32_t, std::unordered_set<std::uint32_t>> edges; // a -> {b}
    std::unordered_map<std::uint32_t, const char*> lock_names;
    std::unordered_map<const void*, TrackedObject> objects;
    Stats stats;
};

State& state()
{
    static State s;
    return s;
}

thread_local std::uint32_t t_override = 0;

std::uint32_t auto_thread_id()
{
    // Auto ids live at 0x40000000+ so test overrides (small integers)
    // can never collide with a real thread's id.
    static std::atomic<std::uint32_t> next{0x40000000};
    thread_local std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

const char* lock_name_locked(State& s, std::uint32_t id)
{
    auto it = s.lock_names.find(id);
    return it == s.lock_names.end() ? "?" : it->second;
}

// Is `to` reachable from `from` in the acquisition DAG? (Iterative DFS;
// the graph is small — one node per distinct lock object.)
bool reachable_locked(State& s, std::uint32_t from, std::uint32_t to,
                      std::vector<std::uint32_t>* path)
{
    std::vector<std::uint32_t> stack{from};
    std::unordered_map<std::uint32_t, std::uint32_t> parent; // child -> parent
    std::unordered_set<std::uint32_t> visited{from};
    while (!stack.empty()) {
        const std::uint32_t cur = stack.back();
        stack.pop_back();
        if (cur == to) {
            if (path) {
                std::vector<std::uint32_t> rev{to};
                for (std::uint32_t n = to; n != from;) {
                    n = parent[n];
                    rev.push_back(n);
                }
                path->assign(rev.rbegin(), rev.rend());
            }
            return true;
        }
        auto it = s.edges.find(cur);
        if (it == s.edges.end()) continue;
        // Deterministic visit order keeps reported cycle paths stable
        // across identical runs.
        std::vector<std::uint32_t> next(it->second.begin(), it->second.end());
        std::sort(next.begin(), next.end());
        for (auto n : next) {
            if (visited.insert(n).second) {
                parent[n] = cur;
                stack.push_back(n);
            }
        }
    }
    return false;
}

std::string held_names_locked(State& s, const std::vector<HeldLock>& held)
{
    (void)s;
    if (held.empty()) return "{}";
    std::string out = "{";
    for (std::size_t i = 0; i < held.size(); ++i) {
        if (i) out += ", ";
        out += held[i].name;
    }
    return out + "}";
}

std::vector<std::uint32_t> held_ids(const std::vector<HeldLock>& held, bool exclusive_only)
{
    std::vector<std::uint32_t> ids;
    for (const auto& h : held) {
        if (!exclusive_only || h.exclusive) ids.push_back(h.id);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
}

} // namespace

void override_thread(std::uint32_t tid) { t_override = tid; }

std::uint32_t current_thread() { return t_override ? t_override : auto_thread_id(); }

void on_acquire(std::uint32_t lock_id, const char* name, bool exclusive)
{
    if (!hardened()) return;
    Violation pending;
    bool fire = false;
    {
        State& s = state();
        std::lock_guard<std::mutex> g(s.mu);
        ++s.stats.acquisitions;
        s.lock_names[lock_id] = name;
        auto& held = s.held[current_thread()];
        for (const auto& h : held) {
            if (h.id == lock_id) {
                pending.checker = "recursive-acquire";
                pending.message = std::string("lock \"") + name +
                                  "\" re-acquired by the holding thread "
                                  "(self-deadlock on a non-recursive mutex); held " +
                                  held_names_locked(s, held);
                pending.site = OVSX_SITE;
                fire = true;
                break;
            }
        }
        if (!fire) {
            for (const auto& h : held) {
                const bool is_new = s.edges[h.id].insert(lock_id).second;
                if (!is_new) continue;
                ++s.stats.order_edges;
                // The new edge h -> lock_id closes a cycle iff lock_id
                // could already reach h.
                std::vector<std::uint32_t> path;
                if (reachable_locked(s, lock_id, h.id, &path)) {
                    std::string cycle;
                    for (auto id : path) {
                        cycle += "\"";
                        cycle += lock_name_locked(s, id);
                        cycle += "\" -> ";
                    }
                    cycle += "\"";
                    cycle += name;
                    cycle += "\"";
                    pending.checker = "lock-order-inversion";
                    pending.message = std::string("acquiring \"") + name + "\" while holding \"" +
                                      h.name + "\" inverts the established order " + cycle;
                    pending.site = OVSX_SITE;
                    fire = true;
                    break;
                }
            }
        }
        held.push_back({lock_id, name, exclusive});
    }
    // report() outside the checker lock: it may abort or call arbitrary
    // collector code.
    if (fire) report(std::move(pending));
}

void on_release(std::uint32_t lock_id)
{
    if (!hardened()) return;
    State& s = state();
    std::lock_guard<std::mutex> g(s.mu);
    auto& held = s.held[current_thread()];
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (it->id == lock_id) {
            held.erase(std::next(it).base());
            return;
        }
    }
    // Releasing a lock we never saw acquired: tracking was toggled
    // mid-hold (ScopedHardened) — ignore rather than false-positive.
}

std::size_t held_count()
{
    State& s = state();
    std::lock_guard<std::mutex> g(s.mu);
    auto it = s.held.find(current_thread());
    return it == s.held.end() ? 0 : it->second.size();
}

void on_access(const void* obj, const char* name, bool write, Site site)
{
    if (!hardened()) return;
    Violation pending;
    bool fire = false;
    {
        State& s = state();
        std::lock_guard<std::mutex> g(s.mu);
        ++s.stats.accesses;
        const std::uint32_t tid = current_thread();
        auto& held = s.held[tid];
        TrackedObject& t = s.objects[obj];
        if (t.state == ObjState::Virgin) {
            t.name = name;
            t.state = ObjState::Exclusive;
            t.owner = tid;
        } else if (t.state == ObjState::Exclusive) {
            if (tid != t.owner) {
                // Second thread: refinement starts with ITS lockset —
                // whatever the initializing thread did lock-free stays
                // forgiven (Eraser's initialization grace).
                t.candidates = held_ids(held, /*exclusive_only=*/write);
                t.state = write ? ObjState::SharedModified : ObjState::Shared;
            }
        } else {
            std::vector<std::uint32_t> now = held_ids(held, /*exclusive_only=*/write);
            std::vector<std::uint32_t> inter;
            std::set_intersection(t.candidates.begin(), t.candidates.end(), now.begin(),
                                  now.end(), std::back_inserter(inter));
            t.candidates = std::move(inter);
            if (write) t.state = ObjState::SharedModified;
        }
        if (t.state == ObjState::SharedModified && t.candidates.empty() && !t.reported) {
            t.reported = true;
            pending.checker = "lockset-race";
            pending.message = std::string("shared state \"") + t.name + "\" " +
                              (write ? "written" : "read") + " by thread " +
                              std::to_string(tid) + " holding " + held_names_locked(s, held) +
                              "; no lock protects it consistently (candidate lockset is empty)";
            pending.site = site;
            fire = true;
        }
    }
    if (fire) report(std::move(pending));
}

Stats stats()
{
    State& s = state();
    std::lock_guard<std::mutex> g(s.mu);
    Stats st = s.stats;
    st.tracked_objects = s.objects.size();
    return st;
}

void forget(const void* obj)
{
    State& s = state();
    std::lock_guard<std::mutex> g(s.mu);
    s.objects.erase(obj);
}

void reset()
{
    State& s = state();
    std::lock_guard<std::mutex> g(s.mu);
    s.held.clear();
    s.edges.clear();
    s.lock_names.clear();
    s.objects.clear();
    s.stats = Stats{};
}

namespace {
// Installs the sync-layer hooks at static-init time; every binary that
// links ovsx_san gets the checker wired into every sync::Mutex.
void acquire_tramp(std::uint32_t id, const char* name, bool exclusive)
{
    on_acquire(id, name, exclusive);
}
void release_tramp(std::uint32_t id) { on_release(id); }

struct HookInstaller {
    HookInstaller() { sync::set_lock_hooks(&acquire_tramp, &release_tramp); }
} g_hook_installer;
} // namespace

} // namespace ovsx::san::lockset
