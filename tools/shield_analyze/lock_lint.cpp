// lock-lint: lexical lock-discipline checking over the
// SHIELD_GUARDED_BY / SHIELD_REQUIRES / SHIELD_THREAD_CONFINED
// annotations (src/common/thread_annotations.h). Every touch of an
// annotated member must sit lexically inside a scope that acquired the
// named mutex — via lock_guard/unique_lock/scoped_lock/shared_lock, an
// explicit .lock(), or a SHIELD_REQUIRES contract on the enclosing
// function. Atomic members relax to writes-only (lock-free readers are
// the point of TicketIssuer's epoch); constructors/destructors are
// exempt (no concurrent access before/after the object's lifetime).
//
// Soundness limits (DESIGN.md §15): scoping is lexical — a lock
// released early via unique_lock::unlock() is tracked, but a lock
// handed across a call boundary is not; aliasing two mutexes with the
// same terminal name is not distinguished.
// Escape hatch: `// lock-audited(<reason>)`.
#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analyze_core.h"

namespace shield5g::lint {
namespace {

bool is_lock_holder(const std::string& t) {
  return t == "lock_guard" || t == "unique_lock" || t == "scoped_lock" ||
         t == "shared_lock";
}

bool atomic_write_method(const std::string& t) {
  return t == "store" || t == "exchange" || t == "fetch_add" ||
         t == "fetch_sub" || t == "fetch_or" || t == "fetch_and" ||
         t == "fetch_xor" || t == "compare_exchange_weak" ||
         t == "compare_exchange_strong";
}

/// Walks back over one balanced [...] (array declarator) to the
/// declared identifier; returns the identifier index or npos.
std::size_t ident_before(const std::vector<Tok>& toks, std::size_t i) {
  if (i == 0) return std::string::npos;
  std::size_t j = i - 1;
  if (toks[j].text == "]") {
    int depth = 0;
    while (j > 0) {
      if (toks[j].text == "]") ++depth;
      if (toks[j].text == "[" && --depth == 0) break;
      --j;
    }
    if (j == 0) return std::string::npos;
    --j;
  }
  return toks[j].ident ? j : std::string::npos;
}

/// Terminal identifier of the expression in toks[open+1, close): the
/// last plain identifier, so `state_->mutex` and `shard.mutex` both
/// resolve to `mutex`.
std::string terminal_ident(const std::vector<Tok>& toks, std::size_t from,
                           std::size_t to) {
  std::string last;
  for (std::size_t i = from; i < to && i < toks.size(); ++i) {
    if (toks[i].ident) last = toks[i].text;
  }
  return last;
}

/// True when the declaration containing the member at `m` names a
/// std::atomic type (scan back to the previous statement boundary).
bool declared_atomic(const std::vector<Tok>& toks, std::size_t m) {
  for (std::size_t i = m; i-- > 0;) {
    const std::string& t = toks[i].text;
    if (t == ";" || t == "{" || t == "}") return false;
    if (t == "atomic") return true;
  }
  return false;
}

}  // namespace

void collect_lock_annotations(const std::vector<Tok>& toks,
                              LockAnnotations& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "SHIELD_GUARDED_BY" && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      const std::size_t close = match_paren(toks, i + 1);
      const std::size_t member = ident_before(toks, i);
      const std::string mutex = terminal_ident(toks, i + 2, close);
      if (member != std::string::npos && !mutex.empty()) {
        out.guarded.push_back({toks[member].text, mutex,
                               declared_atomic(toks, member)});
      }
    } else if (t == "SHIELD_THREAD_CONFINED") {
      const std::size_t member = ident_before(toks, i);
      if (member != std::string::npos) {
        out.thread_confined.insert(toks[member].text);
      }
    } else if (t == "SHIELD_REQUIRES" && i + 1 < toks.size() &&
               toks[i + 1].text == "(") {
      const std::size_t close = match_paren(toks, i + 1);
      const std::string mutex = terminal_ident(toks, i + 2, close);
      // The annotated function: `... name(params) SHIELD_REQUIRES(m)`.
      if (i > 0 && toks[i - 1].text == ")" && !mutex.empty()) {
        int depth = 0;
        std::size_t j = i - 1;
        while (j > 0) {
          if (toks[j].text == ")") ++depth;
          if (toks[j].text == "(" && --depth == 0) break;
          --j;
        }
        if (j > 0 && toks[j - 1].ident) {
          out.requires_fn[toks[j - 1].text] = mutex;
        }
      }
      i = close;
    }
  }
}

void run_lock_lint(const std::string& file, const std::vector<Tok>& toks,
                   const LockAnnotations& ann,
                   std::vector<Finding>& findings) {
  if (ann.guarded.empty() && ann.requires_fn.empty()) return;

  std::map<std::string, const LockAnnotations::Member*> members;
  for (const auto& m : ann.guarded) members[m.name] = &m;

  struct Held {
    std::string mutex;
    int depth;
  };
  std::vector<Held> held;
  int depth = 0;
  int exempt_depth = -1;   // ctor/dtor body: no concurrency yet
  bool pending_exempt = false;
  bool saw_question = false;  // disambiguates `) :` init list vs ternary

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;

    if (t == "{") {
      ++depth;
      if (pending_exempt && exempt_depth < 0) exempt_depth = depth;
      pending_exempt = false;
      saw_question = false;
      continue;
    }
    if (t == "}") {
      --depth;
      while (!held.empty() && held.back().depth > depth) held.pop_back();
      if (exempt_depth >= 0 && depth < exempt_depth) exempt_depth = -1;
      saw_question = false;
      continue;
    }
    if (t == ";") {
      saw_question = false;
      pending_exempt = pending_exempt && false;
      continue;
    }
    if (t == "?") {
      saw_question = true;
      continue;
    }

    // Constructor / destructor definition heads: `A::A(` and `::~A(`.
    if (t == "::" && i + 2 < toks.size()) {
      if (toks[i + 1].text == "~") {
        pending_exempt = true;
      } else if (i > 0 && toks[i - 1].ident && toks[i + 1].ident &&
                 toks[i - 1].text == toks[i + 1].text &&
                 toks[i + 2].text == "(") {
        pending_exempt = true;
      }
      continue;
    }

    // Member-initializer list: skip `) : a_(x), b_(y)` up to the body.
    if (t == ":" && i > 0 && toks[i - 1].text == ")" && !saw_question) {
      while (i + 1 < toks.size() && toks[i + 1].text != "{") ++i;
      continue;
    }

    if (!toks[i].ident) continue;

    // RAII acquisition: lock_guard<...> name(mutexes...).
    if (is_lock_holder(t)) {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "<") {
        const std::size_t close = match_angle(toks, j);
        if (close != j) j = close + 1;
      }
      if (j < toks.size() && toks[j].ident) ++j;  // variable name
      if (j < toks.size() && toks[j].text == "(") {
        const std::size_t close = match_paren(toks, j);
        // scoped_lock may take several mutexes.
        std::size_t arg = j + 1;
        int pdepth = 0;
        std::size_t arg_start = arg;
        for (; arg <= close && arg < toks.size(); ++arg) {
          const std::string& a = toks[arg].text;
          if (a == "(" || a == "[") ++pdepth;
          if (a == ")" || a == "]") {
            if (a == ")" && arg == close) {
              const std::string m = terminal_ident(toks, arg_start, arg);
              if (!m.empty()) held.push_back({m, depth});
              break;
            }
            --pdepth;
          }
          if (a == "," && pdepth == 0) {
            const std::string m = terminal_ident(toks, arg_start, arg);
            if (!m.empty()) held.push_back({m, depth});
            arg_start = arg + 1;
          }
        }
        i = close;
      }
      continue;
    }

    // Explicit mu.lock() / mu.unlock().
    if ((t == "lock" || t == "unlock") && i >= 2 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        toks[i - 2].ident && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      const std::string m = toks[i - 2].text;
      if (t == "lock") {
        held.push_back({m, depth});
      } else {
        for (std::size_t h = held.size(); h-- > 0;) {
          if (held[h].mutex == m) {
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(h));
            break;
          }
        }
      }
      continue;
    }

    const auto holds = [&](const std::string& mutex) {
      for (const Held& h : held) {
        if (h.mutex == mutex) return true;
      }
      return false;
    };

    // SHIELD_REQUIRES functions: a definition's body runs with the
    // contract mutex held; a call site must already hold it.
    const auto req = ann.requires_fn.find(t);
    if (req != ann.requires_fn.end() && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      const std::size_t close = match_paren(toks, i + 1);
      std::size_t j = close + 1;
      bool annotated_decl = false;
      while (j < toks.size()) {
        const std::string& q = toks[j].text;
        if (q == "SHIELD_REQUIRES" && j + 1 < toks.size() &&
            toks[j + 1].text == "(") {
          annotated_decl = true;
          j = match_paren(toks, j + 1) + 1;
          continue;
        }
        if (q == "const" || q == "noexcept" || q == "override" ||
            q == "final") {
          ++j;
          continue;
        }
        break;
      }
      if (j < toks.size() && toks[j].text == "{") {
        // Definition: body executes under the contract.
        held.push_back({req->second, depth + 1});
      } else if (!annotated_decl && exempt_depth < 0 &&
                 !holds(req->second)) {
        add_finding(findings, file, toks[i].line, "lock-lint",
                    "call to " + t + "() requires `" + req->second +
                        "` held (SHIELD_REQUIRES)");
      }
      continue;
    }

    // Guarded-member touch.
    const auto it = members.find(t);
    if (it == members.end()) continue;
    if (ann.thread_confined.count(t)) continue;
    // The declaration site itself (annotation adjacent, possibly past
    // an array declarator).
    {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].text == "[") {
        const std::size_t close = match_square(toks, j);
        if (close < toks.size()) j = close + 1;
      }
      if (j < toks.size() && (toks[j].text == "SHIELD_GUARDED_BY" ||
                              toks[j].text == "SHIELD_THREAD_CONFINED")) {
        continue;
      }
    }
    if (exempt_depth >= 0 && depth >= exempt_depth) continue;
    const LockAnnotations::Member& m = *it->second;
    if (m.is_atomic) {
      // Reads are wait-free by design; only mutations need the lock.
      bool write = false;
      if (i + 1 < toks.size()) {
        const std::string& n = toks[i + 1].text;
        if (n == "=") write = true;
        if ((n == "+" || n == "-" || n == "|" || n == "&" || n == "^") &&
            i + 2 < toks.size() && toks[i + 2].text == "=") {
          write = true;
        }
        if ((n == "+" || n == "-") && i + 2 < toks.size() &&
            toks[i + 2].text == n) {
          write = true;  // postfix ++/--
        }
        if ((n == "." || n == "->") && i + 2 < toks.size() &&
            atomic_write_method(toks[i + 2].text)) {
          write = true;
        }
      }
      if (i >= 2 && toks[i - 1].text == toks[i - 2].text &&
          (toks[i - 1].text == "+" || toks[i - 1].text == "-")) {
        write = true;  // prefix ++/--
      }
      if (!write) continue;
      if (!holds(m.mutex)) {
        add_finding(findings, file, toks[i].line, "lock-lint",
                    "write to atomic `" + t + "` (guarded by `" + m.mutex +
                        "`) outside the lock");
      }
      continue;
    }
    if (!holds(m.mutex)) {
      add_finding(findings, file, toks[i].line, "lock-lint",
                  "`" + t + "` (guarded by `" + m.mutex +
                      "`) touched without the lock held");
    }
  }
}

}  // namespace shield5g::lint
