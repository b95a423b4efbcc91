#include "obs/appctl.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "obs/coverage.h"
#include "obs/int_export.h"
#include "obs/latency.h"

namespace ovsx::obs {

Appctl::Appctl()
{
    register_command("coverage/show", "global coverage counters", [](const Args&) {
        Value v = Value::object();
        for (const auto& [name, count] : coverage_snapshot()) {
            v.set(name, count);
        }
        return v;
    });
    // Built-in so every provider's appctl reports the identical shape.
    register_command("latency/show", "per-provider per-tier latency histograms",
                     [](const Args&) { return latency_show(); });
    register_command("int/paths", "observed INT paths with per-hop p50/p99",
                     [](const Args&) { return int_paths_show(); });
    register_command("fabric/show", "fabric topology and per-link load",
                     [](const Args&) { return fabric_show(); });
    register_command("memory/show", "registered allocator/cache occupancy",
                     [](const Args&) { return memory_show(); });
    register_command("shards/show", "per-shard occupancy of sharded tables",
                     [](const Args&) { return shards_show(); });
    register_command("appctl/list", "list registered commands", [this](const Args&) {
        Value v = Value::object();
        for (const auto& [name, help] : commands()) {
            v.set(name, help);
        }
        return v;
    });
}

void Appctl::register_command(std::string name, std::string help, Handler handler)
{
    sync::LockGuard guard(mu_);
    for (auto& cmd : commands_) {
        if (cmd.name == name) {
            cmd.help = std::move(help);
            cmd.handler = std::move(handler);
            return;
        }
    }
    commands_.push_back(Command{std::move(name), std::move(help), std::move(handler)});
}

void Appctl::unregister_command(const std::string& name)
{
    sync::LockGuard guard(mu_);
    commands_.erase(std::remove_if(commands_.begin(), commands_.end(),
                                   [&](const Command& c) { return c.name == name; }),
                    commands_.end());
}

bool Appctl::has(const std::string& name) const
{
    sync::LockGuard guard(mu_);
    return std::any_of(commands_.begin(), commands_.end(),
                       [&](const Command& c) { return c.name == name; });
}

std::vector<std::pair<std::string, std::string>> Appctl::commands() const
{
    sync::LockGuard guard(mu_);
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(commands_.size());
    for (const auto& c : commands_) out.emplace_back(c.name, c.help);
    std::sort(out.begin(), out.end());
    return out;
}

Value Appctl::run_value(const std::string& name, const Args& args) const
{
    // Copy the handler out, then invoke with mu_ released: handlers
    // re-enter this Appctl (appctl/list calls commands()) and take
    // datapath locks, so invoking under mu_ would self-deadlock and
    // invert the lock order.
    Handler handler;
    {
        sync::LockGuard guard(mu_);
        for (const auto& c : commands_) {
            if (c.name == name) {
                handler = c.handler;
                break;
            }
        }
    }
    if (!handler) throw std::invalid_argument("appctl: unknown command '" + name + "'");
    return handler(args);
}

std::string Appctl::run(const std::string& name, const Args& args, Format format) const
{
    const Value v = run_value(name, args);
    return format == Format::Json ? v.to_json() : v.to_text();
}

// --- reporter registries (memory/show, shards/show) ---------------------

namespace {

// Named reporters in registration order; names may repeat (several
// mempools). show() copies the list under the registry lock, then runs
// the reporters unlocked: they take their owners' table locks, and the
// registry lock must stay a leaf in the lock order.
class ReporterRegistry {
public:
    using ReportFn = std::function<Value()>;

    explicit ReporterRegistry(const char* lock_name) : mu_(lock_name) {}

    std::uint64_t add(std::string name, ReportFn fn) OVSX_EXCLUDES(mu_)
    {
        sync::LockGuard guard(mu_);
        const std::uint64_t token = next_token_++;
        entries_.push_back(Entry{token, std::move(name), std::move(fn)});
        return token;
    }

    void remove(std::uint64_t token) OVSX_EXCLUDES(mu_)
    {
        sync::LockGuard guard(mu_);
        std::erase_if(entries_, [&](const Entry& e) { return e.token == token; });
    }

    // Object keyed by reporter name, sorted; duplicates get "#2", "#3", ...
    Value show() const OVSX_EXCLUDES(mu_)
    {
        std::vector<Entry> reporters;
        {
            sync::LockGuard guard(mu_);
            reporters = entries_;
        }
        std::map<std::string, std::vector<const ReportFn*>> by_name;
        for (const Entry& e : reporters) by_name[e.name].push_back(&e.fn);
        Value v = Value::object();
        for (const auto& [name, fns] : by_name) {
            for (std::size_t i = 0; i < fns.size(); ++i) {
                v.set(i == 0 ? name : name + "#" + std::to_string(i + 1), (*fns[i])());
            }
        }
        return v;
    }

private:
    struct Entry {
        std::uint64_t token;
        std::string name;
        ReportFn fn;
    };
    mutable sync::Mutex mu_;
    std::uint64_t next_token_ OVSX_GUARDED_BY(mu_) = 1;
    std::vector<Entry> entries_ OVSX_GUARDED_BY(mu_);
};

ReporterRegistry& memory_registry()
{
    static ReporterRegistry r("obs.memory");
    return r;
}

ReporterRegistry& shards_registry()
{
    static ReporterRegistry r("obs.shards");
    return r;
}

} // namespace

std::uint64_t memory_register(std::string name, MemoryReportFn fn)
{
    return memory_registry().add(std::move(name), std::move(fn));
}

void memory_unregister(std::uint64_t token) { memory_registry().remove(token); }

Value memory_show() { return memory_registry().show(); }

std::uint64_t shards_register(std::string name, ShardReportFn fn)
{
    return shards_registry().add(std::move(name), std::move(fn));
}

void shards_unregister(std::uint64_t token) { shards_registry().remove(token); }

Value shards_show() { return shards_registry().show(); }

} // namespace ovsx::obs
