#include "workload/default_profiles.h"

#include "context/parser.h"

namespace ctxpref::workload {

namespace {

/// Adds `cod_text => attr = value : score` to `profile`.
Status AddPref(Profile& profile, const std::string& cod_text,
               const std::string& attr, db::Value value, double score) {
  StatusOr<CompositeDescriptor> cod =
      ParseCompositeDescriptor(profile.env(), cod_text);
  if (!cod.ok()) return cod.status();
  StatusOr<ContextualPreference> pref = ContextualPreference::Create(
      std::move(*cod),
      AttributeClause{attr, db::CompareOp::kEq, std::move(value)}, score);
  if (!pref.ok()) return pref.status();
  return profile.Insert(std::move(*pref));
}

Status AddTypePref(Profile& p, const std::string& cod,
                   const std::string& type, double score) {
  return AddPref(p, cod, "type", db::Value(type), score);
}

}  // namespace

StatusOr<Profile> MakeDefaultProfile(EnvironmentPtr env, AgeGroup age,
                                     Sex sex, Taste taste) {
  Profile p(std::move(env));

  // ---- Weather-driven open-air preferences (shared by everyone) ----
  CTXPREF_RETURN_IF_ERROR(
      AddPref(p, "temperature = good", "open_air", db::Value(true), 0.8));
  CTXPREF_RETURN_IF_ERROR(
      AddPref(p, "temperature = bad", "open_air", db::Value(false), 0.75));
  CTXPREF_RETURN_IF_ERROR(
      AddPref(p, "temperature = hot", "open_air", db::Value(true), 0.9));
  CTXPREF_RETURN_IF_ERROR(
      AddPref(p, "temperature = freezing", "open_air", db::Value(false), 0.9));

  // ---- Companion-driven type preferences ----
  CTXPREF_RETURN_IF_ERROR(
      AddTypePref(p, "accompanying_people = family", "zoo", 0.85));
  CTXPREF_RETURN_IF_ERROR(
      AddTypePref(p, "accompanying_people = family", "park", 0.8));
  CTXPREF_RETURN_IF_ERROR(
      AddTypePref(p, "accompanying_people = family", "museum", 0.7));
  CTXPREF_RETURN_IF_ERROR(
      AddTypePref(p, "accompanying_people = alone", "gallery", 0.65));
  CTXPREF_RETURN_IF_ERROR(
      AddTypePref(p, "accompanying_people = alone", "museum", 0.75));

  // ---- Age-driven ----
  switch (age) {
    case AgeGroup::kUnder30:
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "accompanying_people = friends", "brewery", 0.9));
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "accompanying_people = friends", "cafeteria", 0.8));
      CTXPREF_RETURN_IF_ERROR(AddTypePref(p, "temperature = good", "park", 0.7));
      break;
    case AgeGroup::k30To50:
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "accompanying_people = friends", "theater", 0.8));
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "accompanying_people = friends", "cafeteria", 0.75));
      CTXPREF_RETURN_IF_ERROR(AddTypePref(p, "*", "museum", 0.6));
      break;
    case AgeGroup::kOver50:
      CTXPREF_RETURN_IF_ERROR(AddTypePref(p, "*", "museum", 0.85));
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "temperature = good", "archaeological_site", 0.85));
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "accompanying_people = friends", "theater", 0.75));
      break;
  }

  // ---- Taste-driven ----
  switch (taste) {
    case Taste::kMainstream:
      CTXPREF_RETURN_IF_ERROR(AddPref(p, "location = Athens", "name",
                                      db::Value("Acropolis"), 0.95));
      CTXPREF_RETURN_IF_ERROR(AddPref(p, "location = Thessaloniki", "name",
                                      db::Value("White_Tower"), 0.9));
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "location = Greece", "archaeological_site", 0.8));
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "location = Greece", "monument", 0.7));
      break;
    case Taste::kOffbeat:
      CTXPREF_RETURN_IF_ERROR(AddTypePref(p, "location = Greece", "market", 0.8));
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "location = Greece", "gallery", 0.75));
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "location = Ladadika", "brewery", 0.85));
      CTXPREF_RETURN_IF_ERROR(
          AddTypePref(p, "location = Exarchia", "cafeteria", 0.8));
      break;
  }

  // ---- Sex is a mild modifier in this synthetic scheme ----
  switch (sex) {
    case Sex::kMale:
      CTXPREF_RETURN_IF_ERROR(AddTypePref(
          p, "accompanying_people = friends and temperature = good",
          "market", 0.55));
      break;
    case Sex::kFemale:
      CTXPREF_RETURN_IF_ERROR(AddTypePref(
          p, "accompanying_people = friends and temperature = good",
          "gallery", 0.6));
      break;
  }

  return p;
}

StatusOr<std::vector<Profile>> AllDefaultProfiles(EnvironmentPtr env) {
  std::vector<Profile> out;
  for (AgeGroup age :
       {AgeGroup::kUnder30, AgeGroup::k30To50, AgeGroup::kOver50}) {
    for (Sex sex : {Sex::kMale, Sex::kFemale}) {
      for (Taste taste : {Taste::kMainstream, Taste::kOffbeat}) {
        StatusOr<Profile> p = MakeDefaultProfile(env, age, sex, taste);
        if (!p.ok()) return p.status();
        out.push_back(std::move(*p));
      }
    }
  }
  return out;
}

}  // namespace ctxpref::workload
