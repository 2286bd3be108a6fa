// D7 corpus: mutable global / static state in simulation code (the
// src/ path segment puts this file inside the simulation filter).
// Not compiled; linted by test_nectar_lint only.
#include <cstdint>

namespace fake {

inline int packetsInFlight = 0;
static std::uint64_t totalBytes = 0;
extern int sharedConfig;
inline void (*hookFn)(int) = nullptr;

inline constexpr int maxRetries = 5;      // constexpr: immutable
static const char *const tag = "v1";      // const: immutable
static thread_local int scratch = 0;      // one thread runs every system

// nectar-lint: global-ok corpus fixture justifying a waiver
static int sanctioned = 0;

struct Counters
{
    static inline std::uint64_t grand = 0;
    static constexpr int width = 8;       // constexpr member: fine
};

inline int
nextId()
{
    static int id = 0;                    // function-local static
    static const int base = 100;          // const: fine
    return base + id++;
}

int
consume()
{
    if (packetsInFlight > 0) {
        static bool warned = false;       // static in a block scope
        (void)warned;
    }
    return Counters::grand > totalBytes ? 1 : 0;
}

} // namespace fake

// The forms that need no static, inline or extern keyword, and the
// storage keywords that do not make state per-system.
namespace fake {

namespace {
int runCounter = 0;                       // anonymous namespace
} // namespace

double lastLatency;                       // named namespace, no keyword

struct Ledger
{
    static std::uint64_t entries;
    int size() const;
};
std::uint64_t Ledger::entries = 0;        // out-of-line definition

int
Ledger::size() const
{
    static int calls = 0;                 // static in a const member
    return ++calls;
}

constinit int firstRun = 1;               // constinit fixes only the start
thread_local int perThread = 0;           // one thread runs every system
constinit const int fixed = 2;            // const: fine

inline int
calls()
{
    thread_local int n = 0;               // block-scope thread_local
    return ++n;
}

sim::Random rng(42);                      // parenthesised initializer
std::vector<int> seen(16, 0);             // ditto, after a template

} // namespace fake
