#include "storage/admission.h"

#include "util/metrics.h"

namespace ctxpref::storage {

namespace {

/// Process-wide admission metrics, aggregated across controllers (a
/// server normally runs exactly one; per-controller exactness lives in
/// `GetStats`).
struct AdmissionMetrics {
  Counter& admitted;
  Counter& shed_capacity;
  Counter& shed_deadline;
  Gauge& in_flight;

  static AdmissionMetrics& Get() {
    MetricsRegistry& reg = MetricsRegistry::Global();
    static AdmissionMetrics* m = new AdmissionMetrics{
        reg.GetCounter("ctxpref_serving_admitted_total",
                       "Requests admitted by AdmissionController"),
        reg.GetCounter("ctxpref_serving_shed_capacity_total",
                       "Requests shed: in-flight limit reached"),
        reg.GetCounter("ctxpref_serving_shed_deadline_total",
                       "Requests shed: deadline already expired at admission"),
        reg.GetGauge("ctxpref_serving_in_flight",
                     "Currently admitted requests, all controllers"),
    };
    return *m;
  }
};

}  // namespace

const char* AdmissionDecisionToString(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kAdmitted:
      return "admitted";
    case AdmissionDecision::kShedCapacity:
      return "shed-capacity";
    case AdmissionDecision::kShedDeadline:
      return "shed-deadline";
  }
  return "unknown";
}

AdmissionController::AdmissionController(AdmissionPolicy policy)
    : policy_(policy) {}

AdmissionController::Ticket AdmissionController::Admit(
    const util::Deadline& deadline) {
  AdmissionMetrics& metrics = AdmissionMetrics::Get();
  if (deadline.Expired()) {
    {
      util::MutexLock lock(mu_);
      ++shed_deadline_total_;
    }
    metrics.shed_deadline.Increment();
    return Ticket(nullptr, AdmissionDecision::kShedDeadline);
  }
  bool admitted = false;
  {
    util::MutexLock lock(mu_);
    if (in_flight_ >= policy_.max_in_flight) {
      ++shed_capacity_total_;
    } else {
      admitted = true;
      ++in_flight_;
      if (in_flight_ > in_flight_highwater_) in_flight_highwater_ = in_flight_;
      ++admitted_total_;
    }
  }
  if (!admitted) {
    metrics.shed_capacity.Increment();
    return Ticket(nullptr, AdmissionDecision::kShedCapacity);
  }
  metrics.admitted.Increment();
  metrics.in_flight.Add(1);
  return Ticket(this, AdmissionDecision::kAdmitted);
}

void AdmissionController::ReleaseSlot() {
  {
    util::MutexLock lock(mu_);
    --in_flight_;
  }
  AdmissionMetrics::Get().in_flight.Add(-1);
}

void AdmissionController::Ticket::Release() {
  if (controller_ != nullptr) {
    controller_->ReleaseSlot();
    controller_ = nullptr;
  }
}

AdmissionController::Stats AdmissionController::GetStats() const {
  util::MutexLock lock(mu_);
  Stats s;
  s.in_flight = in_flight_;
  s.in_flight_highwater = in_flight_highwater_;
  s.admitted_total = admitted_total_;
  s.shed_capacity_total = shed_capacity_total_;
  s.shed_deadline_total = shed_deadline_total_;
  return s;
}

}  // namespace ctxpref::storage
