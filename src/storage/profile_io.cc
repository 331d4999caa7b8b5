#include "storage/profile_io.h"

#include <cstring>
#include <fstream>
#include <sstream>

#include "util/crc32.h"

namespace ctxpref::storage {

namespace {

constexpr char kMagic[4] = {'C', 'P', 'F', '1'};

// ---- little-endian encoders ----

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void PutU16(std::string& out, uint16_t v) {
  for (int i = 0; i < 2; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutF64(std::string& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

void PutValue(std::string& out, const db::Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case db::ColumnType::kInt64:
      PutU64(out, static_cast<uint64_t>(v.AsInt64()));
      break;
    case db::ColumnType::kDouble:
      PutF64(out, v.AsDouble());
      break;
    case db::ColumnType::kString:
      PutString(out, v.AsString());
      break;
    case db::ColumnType::kBool:
      PutU8(out, v.AsBool() ? 1 : 0);
      break;
  }
}

// ---- reader with bounds checking ----

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status Read(void* out, size_t n) {
    if (remaining() < n) {
      return Status::Corruption("profile file truncated");
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  StatusOr<uint8_t> U8() {
    uint8_t v = 0;
    CTXPREF_RETURN_IF_ERROR(Read(&v, 1));
    return v;
  }
  StatusOr<uint16_t> U16() {
    uint8_t b[2];
    CTXPREF_RETURN_IF_ERROR(Read(b, 2));
    return static_cast<uint16_t>(b[0] | (b[1] << 8));
  }
  StatusOr<uint32_t> U32() {
    uint8_t b[4];
    CTXPREF_RETURN_IF_ERROR(Read(b, 4));
    return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
           (static_cast<uint32_t>(b[2]) << 16) |
           (static_cast<uint32_t>(b[3]) << 24);
  }
  StatusOr<uint64_t> U64() {
    uint64_t v = 0;
    uint8_t b[8];
    CTXPREF_RETURN_IF_ERROR(Read(b, 8));
    for (int i = 7; i >= 0; --i) v = (v << 8) | b[i];
    return v;
  }
  StatusOr<double> F64() {
    StatusOr<uint64_t> bits = U64();
    if (!bits.ok()) return bits.status();
    double v;
    uint64_t raw = *bits;
    std::memcpy(&v, &raw, sizeof(v));
    return v;
  }
  StatusOr<std::string> String() {
    StatusOr<uint32_t> len = U32();
    if (!len.ok()) return len.status();
    if (remaining() < *len) {
      return Status::Corruption("profile file truncated in string");
    }
    std::string out(data_.substr(pos_, *len));
    pos_ += *len;
    return out;
  }
  StatusOr<db::Value> Value() {
    StatusOr<uint8_t> type = U8();
    if (!type.ok()) return type.status();
    switch (static_cast<db::ColumnType>(*type)) {
      case db::ColumnType::kInt64: {
        StatusOr<uint64_t> v = U64();
        if (!v.ok()) return v.status();
        return db::Value(static_cast<int64_t>(*v));
      }
      case db::ColumnType::kDouble: {
        StatusOr<double> v = F64();
        if (!v.ok()) return v.status();
        return db::Value(*v);
      }
      case db::ColumnType::kString: {
        StatusOr<std::string> v = String();
        if (!v.ok()) return v.status();
        return db::Value(std::move(*v));
      }
      case db::ColumnType::kBool: {
        StatusOr<uint8_t> v = U8();
        if (!v.ok()) return v.status();
        return db::Value(*v != 0);
      }
    }
    return Status::Corruption("unknown value type tag " +
                              std::to_string(*type));
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

std::string SerializeProfile(const Profile& profile) {
  std::string payload;
  PutU64(payload, profile.size());
  for (const ContextualPreference& pref : profile.preferences()) {
    const CompositeDescriptor& cod = pref.descriptor();
    PutU32(payload, static_cast<uint32_t>(cod.parts().size()));
    for (const ParameterDescriptor& pd : cod.parts()) {
      PutU32(payload, static_cast<uint32_t>(pd.param_index()));
      PutU8(payload, static_cast<uint8_t>(pd.kind()));
      PutU32(payload, static_cast<uint32_t>(pd.ContextOf().size()));
      for (ValueRef v : pd.ContextOf()) {
        PutU16(payload, v.level);
        PutU32(payload, v.id);
      }
    }
    PutString(payload, pref.clause().attribute);
    PutU8(payload, static_cast<uint8_t>(pref.clause().op));
    PutValue(payload, pref.clause().value);
    PutF64(payload, pref.score());
  }

  std::string out(kMagic, sizeof(kMagic));
  out += payload;
  PutU32(out, Crc32(payload));
  return out;
}

StatusOr<Profile> DeserializeProfile(EnvironmentPtr env,
                                     std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("not a ctxpref profile file (bad magic)");
  }
  std::string_view payload =
      bytes.substr(sizeof(kMagic), bytes.size() - sizeof(kMagic) - 4);
  // Verify the trailing checksum first.
  {
    Reader tail(bytes.substr(bytes.size() - 4));
    StatusOr<uint32_t> stored = tail.U32();
    if (!stored.ok()) return stored.status();
    if (*stored != Crc32(payload)) {
      return Status::Corruption("profile checksum mismatch");
    }
  }

  Reader r(payload);
  StatusOr<uint64_t> count = r.U64();
  if (!count.ok()) return count.status();

  Profile profile(env);
  for (uint64_t p = 0; p < *count; ++p) {
    StatusOr<uint32_t> num_parts = r.U32();
    if (!num_parts.ok()) return num_parts.status();
    std::vector<ParameterDescriptor> parts;
    for (uint32_t i = 0; i < *num_parts; ++i) {
      StatusOr<uint32_t> param = r.U32();
      if (!param.ok()) return param.status();
      StatusOr<uint8_t> kind = r.U8();
      if (!kind.ok()) return kind.status();
      StatusOr<uint32_t> num_values = r.U32();
      if (!num_values.ok()) return num_values.status();
      if (*num_values == 0) {
        return Status::Corruption("descriptor with zero values");
      }
      // A value is a u16 level and a u32 id: a count the payload cannot
      // hold fails before it sizes the allocation below.
      if (*num_values > r.remaining() / 6) {
        return Status::Corruption("descriptor value count exceeds the file");
      }
      std::vector<ValueRef> values;
      values.reserve(*num_values);
      for (uint32_t v = 0; v < *num_values; ++v) {
        StatusOr<uint16_t> level = r.U16();
        if (!level.ok()) return level.status();
        StatusOr<uint32_t> id = r.U32();
        if (!id.ok()) return id.status();
        values.push_back(ValueRef{*level, *id});
      }
      auto make_pd = [&]() -> StatusOr<ParameterDescriptor> {
        switch (static_cast<ParameterDescriptor::Kind>(*kind)) {
          case ParameterDescriptor::Kind::kEquals:
            if (values.size() != 1) {
              return Status::Corruption("equals descriptor with " +
                                        std::to_string(values.size()) +
                                        " values");
            }
            return ParameterDescriptor::Equals(*env, *param, values[0]);
          case ParameterDescriptor::Kind::kSet:
            return ParameterDescriptor::Set(*env, *param, std::move(values));
          case ParameterDescriptor::Kind::kRange:
            return ParameterDescriptor::Range(*env, *param, values.front(),
                                              values.back());
        }
        return Status::Corruption("unknown descriptor kind tag " +
                                  std::to_string(*kind));
      };
      StatusOr<ParameterDescriptor> pd = make_pd();
      if (!pd.ok()) return pd.status();
      parts.push_back(std::move(*pd));
    }
    StatusOr<CompositeDescriptor> cod =
        CompositeDescriptor::Create(*env, std::move(parts));
    if (!cod.ok()) return cod.status();

    StatusOr<std::string> attr = r.String();
    if (!attr.ok()) return attr.status();
    StatusOr<uint8_t> op = r.U8();
    if (!op.ok()) return op.status();
    if (*op > static_cast<uint8_t>(db::CompareOp::kGe)) {
      return Status::Corruption("unknown compare op tag");
    }
    StatusOr<db::Value> value = r.Value();
    if (!value.ok()) return value.status();
    StatusOr<double> score = r.F64();
    if (!score.ok()) return score.status();

    StatusOr<ContextualPreference> pref = ContextualPreference::Create(
        std::move(*cod),
        AttributeClause{std::move(*attr), static_cast<db::CompareOp>(*op),
                        std::move(*value)},
        *score);
    if (!pref.ok()) return pref.status();
    CTXPREF_RETURN_IF_ERROR(profile.Insert(std::move(*pref)));
  }
  if (r.remaining() != 0) {
    return Status::Corruption("trailing bytes after last preference");
  }
  return profile;
}

Status WriteProfileFile(const Profile& profile, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  std::string bytes = SerializeProfile(profile);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

StatusOr<Profile> ReadProfileFile(EnvironmentPtr env,
                                  const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string bytes = ss.str();
  return DeserializeProfile(std::move(env), bytes);
}

}  // namespace ctxpref::storage
