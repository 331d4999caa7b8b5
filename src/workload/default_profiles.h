#ifndef CTXPREF_WORKLOAD_DEFAULT_PROFILES_H_
#define CTXPREF_WORKLOAD_DEFAULT_PROFILES_H_

#include <string>
#include <vector>

#include "preference/profile.h"
#include "util/status.h"

namespace ctxpref::workload {

/// The paper's §5.1 default-profile scheme: 12 profiles spanned by
/// (a) age — below 30, 30-50, above 50; (b) sex; (c) taste —
/// mainstream or out-of-the-beaten-track. New users are assigned one
/// of these and then modify it.
enum class AgeGroup { kUnder30, k30To50, kOver50 };
enum class Sex { kMale, kFemale };
enum class Taste { kMainstream, kOffbeat };

/// Builds the default profile for one demographic cell over the paper
/// environment (`MakePaperEnvironment()`): ~15-20 rule-based contextual
/// preferences on the `type`, `open_air` and `name` attributes of the
/// POI relation, expressed at mixed hierarchy levels (companion-only
/// descriptors, weather-characterization descriptors, city-level
/// location descriptors).
StatusOr<Profile> MakeDefaultProfile(EnvironmentPtr env, AgeGroup age,
                                     Sex sex, Taste taste);

/// All 12 default profiles, indexed age-major, then sex, then taste.
StatusOr<std::vector<Profile>> AllDefaultProfiles(EnvironmentPtr env);

}  // namespace ctxpref::workload

#endif  // CTXPREF_WORKLOAD_DEFAULT_PROFILES_H_
