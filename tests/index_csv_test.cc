#include <gtest/gtest.h>

#include "db/csv.h"
#include "tests/test_util.h"
#include "workload/poi_dataset.h"

namespace ctxpref::db {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  Schema MakeSchema() {
    StatusOr<Schema> schema = Schema::Create({{"id", ColumnType::kInt64},
                                              {"name", ColumnType::kString},
                                              {"score", ColumnType::kDouble},
                                              {"open", ColumnType::kBool}});
    EXPECT_OK(schema.status());
    return *schema;
  }
};

TEST_F(CsvTest, LoadsTypedRows) {
  const char* csv =
      "id,name,score,open\n"
      "1, Acropolis , 0.8, true\n"
      "2,Museum,0.5,false\n";
  StatusOr<Relation> r = LoadCsv(MakeSchema(), csv);
  ASSERT_OK(r.status());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ(r->row(0)[0].AsInt64(), 1);
  EXPECT_EQ(r->row(0)[1].AsString(), "Acropolis");  // Trimmed.
  EXPECT_DOUBLE_EQ(r->row(0)[2].AsDouble(), 0.8);
  EXPECT_TRUE(r->row(0)[3].AsBool());
}

TEST_F(CsvTest, QuotedFieldsKeepCommasAndQuotes) {
  const char* csv =
      "id,name,score,open\n"
      "1,\"White Tower, Thessaloniki\",0.9,true\n"
      "2,\"say \"\"hi\"\"\",0.1,false\n";
  StatusOr<Relation> r = LoadCsv(MakeSchema(), csv);
  ASSERT_OK(r.status());
  EXPECT_EQ(r->row(0)[1].AsString(), "White Tower, Thessaloniki");
  EXPECT_EQ(r->row(1)[1].AsString(), "say \"hi\"");
}

TEST_F(CsvTest, CrlfAndBlankLines) {
  const char* csv =
      "id,name,score,open\r\n"
      "1,A,0.5,true\r\n"
      "\n"
      "2,B,0.6,false\n"
      "\n";
  StatusOr<Relation> r = LoadCsv(MakeSchema(), csv);
  ASSERT_OK(r.status());
  EXPECT_EQ(r->size(), 2u);
}

TEST_F(CsvTest, HeaderValidation) {
  EXPECT_TRUE(
      LoadCsv(MakeSchema(), "id,name\n").status().IsInvalidArgument());
  EXPECT_TRUE(LoadCsv(MakeSchema(), "id,nom,score,open\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(LoadCsv(MakeSchema(), "").status().IsInvalidArgument());
}

TEST_F(CsvTest, TypingAndArityErrorsNameTheLine) {
  Status st = LoadCsv(MakeSchema(),
                      "id,name,score,open\n"
                      "1,A,0.5,true\n"
                      "x,B,0.6,false\n")
                  .status();
  EXPECT_TRUE(st.IsCorruption());
  EXPECT_NE(st.message().find("line 3"), std::string::npos);
  EXPECT_TRUE(LoadCsv(MakeSchema(),
                      "id,name,score,open\n"
                      "1,A,0.5\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(LoadCsv(MakeSchema(),
                      "id,name,score,open\n"
                      "1,\"unterminated,0.5,true\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(LoadCsv(MakeSchema(),
                      "id,name,score,open\n"
                      "1,A,0.5,maybe\n")
                  .status()
                  .IsCorruption());
}

TEST_F(CsvTest, RoundTrip) {
  StatusOr<Relation> r = LoadCsv(
      MakeSchema(),
      "id,name,score,open\n"
      "1,\"White Tower, Thessaloniki\",0.9,true\n"
      "2,plain,0.25,false\n");
  ASSERT_OK(r.status());
  std::string csv = ToCsv(*r);
  StatusOr<Relation> again = LoadCsv(MakeSchema(), csv);
  ASSERT_OK(again.status());
  ASSERT_EQ(again->size(), r->size());
  for (RowId i = 0; i < r->size(); ++i) {
    EXPECT_EQ(again->row(i), r->row(i)) << i;
  }
}

TEST_F(CsvTest, PoiDatabaseRoundTripsThroughCsv) {
  StatusOr<workload::PoiDatabase> poi = workload::MakePoiDatabase(50, 21);
  ASSERT_OK(poi.status());
  std::string csv = ToCsv(poi->relation);
  StatusOr<Schema> schema = workload::MakePoiSchema();
  ASSERT_OK(schema.status());
  StatusOr<Relation> again = LoadCsv(std::move(*schema), csv);
  ASSERT_OK(again.status());
  ASSERT_EQ(again->size(), poi->relation.size());
  for (RowId i = 0; i < again->size(); ++i) {
    EXPECT_EQ(again->row(i), poi->relation.row(i)) << i;
  }
}

}  // namespace
}  // namespace ctxpref::db
