#include "sampler.hpp"

#include <cxxabi.h>
#include <dlfcn.h>
#include <elf.h>
#include <execinfo.h>
#include <link.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace hyms_bench {

namespace {

constexpr int kMaxDepth = 128;
// The kernel checks the timer once per scheduler tick (4 ms on the reference
// host), so a shorter period gives no more samples.
constexpr long kPeriodUs = 4000;

struct Slot {
  void* pc = nullptr;  // the interrupted instruction
  int depth = 0;
  void* frames[kMaxDepth];
};

Slot* g_slots = nullptr;
std::size_t g_capacity = 0;
std::atomic<std::size_t> g_next{0};

void* interrupted_pc(void* uctx) {
#if defined(__x86_64__)
  return reinterpret_cast<void*>(
      static_cast<ucontext_t*>(uctx)->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(static_cast<ucontext_t*>(uctx)->uc_mcontext.pc);
#else
  (void)uctx;
  return nullptr;
#endif
}

// backtrace() is not async-signal-safe on its first call, which loads the
// unwinder; the constructor makes that call before the timer is armed.
void on_sigprof(int, siginfo_t*, void* uctx) {
  const int saved_errno = errno;
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < g_capacity) {
    Slot& slot = g_slots[i];
    slot.pc = interrupted_pc(uctx);
    slot.depth = backtrace(slot.frames, kMaxDepth);
  }
  errno = saved_errno;
}

std::string demangle(const char* name) {
  int status = 0;
  std::unique_ptr<char, decltype(&std::free)> out(
      abi::__cxa_demangle(name, nullptr, nullptr, &status), &std::free);
  return status == 0 && out != nullptr ? std::string(out.get())
                                       : std::string(name);
}

/// Function symbols of the running executable, read from its .symtab.
/// dladdr only sees the dynamic symbol table, which omits internal-linkage
/// functions: every lambda the simulator schedules, and anonymous-namespace
/// helpers, would otherwise resolve to nothing.
class ExeSymbols {
 public:
  ExeSymbols() {
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* bias) {
          *static_cast<std::uintptr_t*>(bias) = info->dlpi_addr;
          return 1;  // the first object is the executable
        },
        &bias_);
    std::ifstream in("/proc/self/exe", std::ios::binary);
    const std::vector<char> image((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    load(image);
    std::sort(syms_.begin(), syms_.end(),
              [](const Sym& a, const Sym& b) { return a.lo < b.lo; });
  }

  /// The mangled name of the function containing `addr`, or null.
  [[nodiscard]] const char* find(std::uintptr_t addr) const {
    auto it = std::upper_bound(
        syms_.begin(), syms_.end(), addr,
        [](std::uintptr_t a, const Sym& s) { return a < s.lo; });
    if (it == syms_.begin()) return nullptr;
    --it;
    return addr < it->hi ? it->name.c_str() : nullptr;
  }

 private:
  struct Sym {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    std::string name;
  };

  template <typename T>
  static bool read(const std::vector<char>& image, std::uint64_t off, T* out) {
    if (off > image.size() || image.size() - off < sizeof(T)) return false;
    std::memcpy(out, image.data() + off, sizeof(T));
    return true;
  }

  void load(const std::vector<char>& image) {
    Elf64_Ehdr eh;
    if (!read(image, 0, &eh) || std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
        eh.e_ident[EI_CLASS] != ELFCLASS64) {
      return;
    }
    std::vector<Elf64_Shdr> sections(eh.e_shnum);
    for (std::size_t i = 0; i < sections.size(); ++i) {
      if (!read(image, eh.e_shoff + i * eh.e_shentsize, &sections[i])) return;
    }
    for (const Elf64_Shdr& sh : sections) {
      if (sh.sh_type != SHT_SYMTAB || sh.sh_link >= sections.size()) continue;
      const Elf64_Shdr& strtab = sections[sh.sh_link];
      if (strtab.sh_offset > image.size() ||
          image.size() - strtab.sh_offset < strtab.sh_size) {
        continue;
      }
      for (std::uint64_t off = 0; off + sizeof(Elf64_Sym) <= sh.sh_size;
           off += sizeof(Elf64_Sym)) {
        Elf64_Sym sym;
        if (!read(image, sh.sh_offset + off, &sym)) break;
        if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_size == 0 ||
            sym.st_shndx == SHN_UNDEF || sym.st_name >= strtab.sh_size) {
          continue;
        }
        const char* name = image.data() + strtab.sh_offset + sym.st_name;
        const std::size_t len = strnlen(name, strtab.sh_size - sym.st_name);
        const std::uintptr_t lo = bias_ + sym.st_value;
        syms_.push_back({lo, lo + sym.st_size, std::string(name, len)});
      }
    }
  }

  std::uintptr_t bias_ = 0;
  std::vector<Sym> syms_;
};

/// Address -> demangled function name, memoised: a run samples the same few
/// thousand return addresses over and over.
class Symbolizer {
 public:
  const std::string& name(void* addr) {
    const auto key = reinterpret_cast<std::uintptr_t>(addr);
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, resolve(key)).first;
    return it->second;
  }

 private:
  std::string resolve(std::uintptr_t addr) const {
    if (const char* mangled = exe_.find(addr)) return demangle(mangled);
    Dl_info info;
    if (dladdr(reinterpret_cast<void*>(addr), &info) != 0) {
      if (info.dli_sname != nullptr) return demangle(info.dli_sname);
      if (info.dli_fname != nullptr) {
        const char* slash = std::strrchr(info.dli_fname, '/');
        return std::string("?@") + (slash ? slash + 1 : info.dli_fname);
      }
    }
    return "?";
  }

  ExeSymbols exe_;
  std::unordered_map<std::uintptr_t, std::string> cache_;
};

/// The module a demangled symbol belongs to: the first `hyms::<module>::`
/// scope in its name (so `std::vector<hyms::net::Packet>::push_back` counts
/// as net), `util` for the top-level `hyms::` helpers such as `hyms::Time`,
/// and -1 when the symbol is not the program's code.
int module_of(std::string_view name) {
  constexpr std::string_view kRoot = "hyms::";
  for (std::size_t at = name.find(kRoot); at != std::string_view::npos;
       at = name.find(kRoot, at + 1)) {
    // Skip a match inside a longer identifier such as `foohyms::`.
    if (at > 0) {
      const char c = name[at - 1];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_') continue;
    }
    const std::string_view rest = name.substr(at + kRoot.size());
    for (std::size_t m = 0; m < kModules.size(); ++m) {
      const std::string_view mod = kModules[m];
      if (rest.size() > mod.size() + 1 && rest.substr(0, mod.size()) == mod &&
          rest.substr(mod.size(), 2) == "::") {
        return static_cast<int>(m);
      }
    }
    return 0;  // hyms::Time and the other top-level helpers live in util/
  }
  return -1;
}

}  // namespace

Sampler::Sampler(std::size_t capacity) {
  if (g_slots != nullptr) throw std::logic_error("one Sampler at a time");
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    throw std::runtime_error("sigaction(SIGPROF) failed");
  }
  void* warm[4];
  (void)backtrace(warm, 4);
  g_slots = new Slot[capacity];
  g_capacity = capacity;
  g_next.store(0);
}

Sampler::~Sampler() {
  stop();
  // A SIGPROF already pending must not hit the default action (terminate).
  signal(SIGPROF, SIG_IGN);
  delete[] g_slots;
  g_slots = nullptr;
  g_capacity = 0;
}

void Sampler::start() {
  itimerval it{};
  it.it_interval.tv_usec = kPeriodUs;
  it.it_value = it.it_interval;
  if (setitimer(ITIMER_PROF, &it, nullptr) != 0) {
    throw std::runtime_error("setitimer(ITIMER_PROF) failed");
  }
}

void Sampler::stop() {
  itimerval it{};
  setitimer(ITIMER_PROF, &it, nullptr);
}

Sampler::Profile Sampler::profile(std::size_t top_n) const {
  Profile p;
  const std::size_t claimed = g_next.load();
  p.samples = std::min(claimed, g_capacity);
  p.dropped = claimed - p.samples;

  Symbolizer sym;
  std::unordered_map<std::string, std::size_t> leaves;
  for (std::size_t i = 0; i < p.samples; ++i) {
    const Slot& slot = g_slots[i];
    if (slot.depth == kMaxDepth) ++p.truncated;
    // The frames start inside the handler and the signal trampoline; the
    // interrupted stack begins at the frame equal to the interrupted pc.
    int first = 2;
    for (int f = 0; f < slot.depth; ++f) {
      if (slot.frames[f] == slot.pc) {
        first = f + 1;
        break;
      }
    }

    const std::string& leaf = sym.name(slot.pc);
    ++leaves[leaf];
    int self = module_of(leaf);
    std::array<bool, kModules.size()> on_stack{};
    if (self >= 0) on_stack[static_cast<std::size_t>(self)] = true;
    for (int f = first; f < slot.depth; ++f) {
      // A return address points past its call; step back into the call.
      const int m = module_of(
          sym.name(static_cast<char*>(slot.frames[f]) - 1));
      if (m < 0) continue;
      if (self < 0) self = m;
      on_stack[static_cast<std::size_t>(m)] = true;
    }
    if (self < 0) {
      ++p.unattributed;
    } else {
      ++p.self[static_cast<std::size_t>(self)];
    }
    for (std::size_t m = 0; m < kModules.size(); ++m) p.incl[m] += on_stack[m];
  }

  for (auto& [name, count] : leaves) {
    p.top_leaves.push_back({name, module_of(name), count});
  }
  std::sort(p.top_leaves.begin(), p.top_leaves.end(),
            [](const Leaf& a, const Leaf& b) {
              return a.samples != b.samples ? a.samples > b.samples
                                            : a.symbol < b.symbol;
            });
  if (p.top_leaves.size() > top_n) p.top_leaves.resize(top_n);
  return p;
}

}  // namespace hyms_bench
