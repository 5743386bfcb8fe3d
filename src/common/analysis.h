// Static-analysis attribute layer: Clang thread-safety-analysis capabilities
// for the EBR discipline (DESIGN.md §10).
//
// Jiffy's memory safety hangs on two conventions the compiler normally never
// checks: every node/revision dereference happens under a live ebr::Guard,
// and every versioned read happens while an ebr::VersionTicket pins its
// version against the purge watermark. This header turns both conventions
// into Clang capabilities so a `-Wthread-safety -Werror=thread-safety` build
// rejects any internal entry point reached without them:
//
//   * ebr::Guard and ebr::VersionTicket are JIFFY_CAPABILITY classes.
//   * Internal entry points take the guard (and, for versioned reads, the
//     ticket) as an explicit reference parameter annotated
//     JIFFY_REQUIRES_GUARD(g) / JIFFY_REQUIRES_TICKET(t) — you cannot even
//     name the function without a token, and the analysis additionally
//     proves the token is *held* on every path.
//   * Holding is established by Guard::assert_held() / VersionTicket::
//     assert_pinned() (the ASSERT_CAPABILITY pattern, like
//     Mutex::AssertHeld): the RAII constructor is the ground truth and the
//     assert is placed immediately after construction, or at the top of
//     SnapWalk's methods, whose invariant is a live borrowed ReadPin.
//
// The macros are no-ops on non-Clang compilers (GCC builds them out
// entirely), so the annotations cost nothing in the tier-1 toolchain and are
// enforced by the clang lint job (`-Wthread-safety`, see .github/workflows
// and tools/README.md).
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#define JIFFY_TSA_HAS(x) __has_attribute(x)
#else
#define JIFFY_TSA_HAS(x) 0
#endif

#if JIFFY_TSA_HAS(capability)
#define JIFFY_TSA(x) __attribute__((x))
#else
#define JIFFY_TSA(x)
#endif

// A class whose objects are capabilities ("mutex", "ebr_guard", ...).
#define JIFFY_CAPABILITY(name) JIFFY_TSA(capability(name))

// A RAII class that manages another capability (MutexLocker style).
#define JIFFY_SCOPED_CAPABILITY JIFFY_TSA(scoped_lockable)

// Data members readable/writable only while the capability is held.
#define JIFFY_GUARDED_BY(x) JIFFY_TSA(guarded_by(x))
#define JIFFY_PT_GUARDED_BY(x) JIFFY_TSA(pt_guarded_by(x))

// The function may only be called while holding the listed capabilities.
#define JIFFY_REQUIRES(...) JIFFY_TSA(requires_capability(__VA_ARGS__))

// Semantic aliases for the two EBR capabilities: `g` is an ebr::Guard
// parameter (epoch pin — node/revision memory is reachable), `t` an
// ebr::VersionTicket parameter (version pin — the purge watermark cannot
// pass the version this call reads at).
#define JIFFY_REQUIRES_GUARD(g) JIFFY_REQUIRES(g)
#define JIFFY_REQUIRES_TICKET(t) JIFFY_REQUIRES(t)

// The function acquires/releases the listed capabilities (or `this` when
// empty, on members of a capability class).
#define JIFFY_ACQUIRE(...) JIFFY_TSA(acquire_capability(__VA_ARGS__))
#define JIFFY_RELEASE(...) JIFFY_TSA(release_capability(__VA_ARGS__))

// Declares that the capability is held at this point without acquiring it;
// the call is the trust boundary (place it right after the RAII constructor
// or behind a class invariant that owns the token).
#define JIFFY_ASSERT_CAPABILITY(...) JIFFY_TSA(assert_capability(__VA_ARGS__))

// The function returns a reference to the given capability.
#define JIFFY_RETURN_CAPABILITY(x) JIFFY_TSA(lock_returned(x))

// The function must NOT be called while holding the listed capabilities.
#define JIFFY_EXCLUDES(...) JIFFY_TSA(locks_excluded(__VA_ARGS__))

// Escape hatch for code the analysis cannot model; every use needs a
// comment explaining why it is safe.
#define JIFFY_NO_THREAD_SAFETY_ANALYSIS JIFFY_TSA(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Protocol-lint markers (tools/lint.py, DESIGN.md §11). The jiffylint passes
// read a suppression grammar that normally lives in comments attached to the
// flagged statement:
//
//   // escapes: <why>     a guarded pointer deliberately outlives its guard
//                         region; <why> names the mechanism that re-protects
//                         it (a member guard, a flag handoff, quiescence).
//   // unlink: <tag>      an ebr::retire site names the `unlink` catalog
//                         entry (tools/memory_model.json) whose CAS/condemn
//                         edge dominates it.
//   // relaxed: <why>     (audit) a relaxed atomic op with a justification.
//   // pairs: <tag>       (audit) a release/acquire site's publication edge.
//
// When the statement is machine-generated or the comment cannot sit on the
// statement (macro expansions, one-liners shared by formatters), these
// no-op markers carry the same information inside the statement's line. They
// compile away entirely; the argument is documentation for the lint.
#define JIFFY_LINT_ESCAPES(why) static_cast<void>(0)
#define JIFFY_LINT_UNLINK(tag) static_cast<void>(0)
