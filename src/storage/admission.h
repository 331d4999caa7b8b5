#ifndef CTXPREF_STORAGE_ADMISSION_H_
#define CTXPREF_STORAGE_ADMISSION_H_

#include <cstddef>
#include <cstdint>

#include "util/deadline.h"
#include "util/mutex.h"

namespace ctxpref::storage {

/// Why a request was (not) admitted. Every non-admitted outcome is a
/// deterministic function of controller state — no queueing, no
/// randomness — so overload behavior is reproducible in tests.
enum class AdmissionDecision {
  kAdmitted,
  kShedCapacity,  ///< In-flight limit reached.
  kShedDeadline,  ///< Deadline already expired at the front door.
};

const char* AdmissionDecisionToString(AdmissionDecision d);

/// Static policy knobs; plain data so tests and the bench harness can
/// sweep them.
struct AdmissionPolicy {
  /// Upper bound on concurrently admitted requests.
  size_t max_in_flight = 64;
};

/// Admission control for the serving path: the front door that decides
/// — without ever blocking — whether a request may proceed. A request
/// that cannot be admitted is *shed* immediately (the caller falls
/// down the degradation ladder, see docs/robustness.md) instead of
/// queueing behind work that will also miss its deadline. LIFO-under-
/// overload lives in `util::ThreadPool`'s dequeue order, not here:
/// this class deliberately has no queue.
///
/// Thread-safe. The mutex ranks `kAdmission`, outermost in the
/// hierarchy: admission happens before any store/cache/pool lock and
/// ticket release acquires nothing else.
class AdmissionController {
 public:
  /// RAII admission slot. A default ticket is "not admitted"; an
  /// admitted one returns its slot on destruction. Move-only.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept
        : controller_(other.controller_), decision_(other.decision_) {
      // Moved-from == default: it must not report itself admitted
      // while the slot now belongs to the new ticket.
      other.controller_ = nullptr;
      other.decision_ = AdmissionDecision::kShedCapacity;
    }
    Ticket& operator=(Ticket&& other) noexcept {
      if (this != &other) {
        Release();
        controller_ = other.controller_;
        decision_ = other.decision_;
        other.controller_ = nullptr;
        other.decision_ = AdmissionDecision::kShedCapacity;
      }
      return *this;
    }
    ~Ticket() { Release(); }

    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    bool admitted() const {
      return decision_ == AdmissionDecision::kAdmitted;
    }
    AdmissionDecision decision() const { return decision_; }

   private:
    friend class AdmissionController;
    Ticket(AdmissionController* controller, AdmissionDecision decision)
        : controller_(controller), decision_(decision) {}

    void Release();

    /// Non-null only while holding a slot.
    AdmissionController* controller_ = nullptr;
    AdmissionDecision decision_ = AdmissionDecision::kShedCapacity;
  };

  /// Point-in-time occupancy counters.
  struct Stats {
    size_t in_flight = 0;
    size_t in_flight_highwater = 0;
    uint64_t admitted_total = 0;
    uint64_t shed_capacity_total = 0;
    uint64_t shed_deadline_total = 0;
  };

  explicit AdmissionController(AdmissionPolicy policy = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  const AdmissionPolicy& policy() const { return policy_; }

  /// Admit-or-shed, never blocks. An already-expired `deadline` is
  /// shed at the door (`kShedDeadline`) without consuming a slot —
  /// cheaper than letting the query path discover it one cancellation
  /// point later.
  Ticket Admit(const util::Deadline& deadline = {}) EXCLUDES(mu_);

  Stats GetStats() const EXCLUDES(mu_);

 private:
  void ReleaseSlot() EXCLUDES(mu_);

  const AdmissionPolicy policy_;  ///< Set once at construction.

  mutable util::Mutex mu_{util::LockRank::kAdmission,
                          "AdmissionController.mu"};
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  size_t in_flight_highwater_ GUARDED_BY(mu_) = 0;
  uint64_t admitted_total_ GUARDED_BY(mu_) = 0;
  uint64_t shed_capacity_total_ GUARDED_BY(mu_) = 0;
  uint64_t shed_deadline_total_ GUARDED_BY(mu_) = 0;
};

}  // namespace ctxpref::storage

#endif  // CTXPREF_STORAGE_ADMISSION_H_
