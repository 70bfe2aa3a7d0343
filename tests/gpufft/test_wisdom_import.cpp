// Wisdom import against truncated and garbled input. A wisdom file cut at
// any byte must import nothing, or only whole entry lines with their
// original configs; a field with trailing garbage, a sign, a repeat or a
// gap must fail the parse instead of reading as a different config; and
// whatever a seeded garbler does to a file, the import takes all of its
// entry lines or none.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gpufft/planner.h"
#include "gpufft/registry.h"

namespace repro::gpufft {
namespace {

TEST(Wisdom, EveryPrefixImportsWholeEntriesOrNothing) {
  Device dev(sim::geforce_8800_gtx());
  const std::string head = "schema " + std::to_string(kWisdomSchemaVersion) +
                           "\n" + wisdom_header(dev.spec()) + "\n";
  TuneConfig wide;
  wide.threads_per_block = 128;
  wide.coarse_radix = 8;
  TuneConfig deep;
  deep.shmem_pad_words = 8;
  deep.slab_depth = 16;
  std::string file;
  {
    PlanRegistry reg(dev);
    ASSERT_EQ(
        reg.import_wisdom(
            head +
            wisdom_line(PlanDesc::bandwidth3d(cube(64), Direction::Forward),
                        wide) +
            "\n" +
            wisdom_line(PlanDesc::out_of_core(128, 8, Direction::Inverse),
                        deep) +
            "\n"),
        2u);
    file = reg.export_wisdom();
  }
  // The exported entries in file order, and the offset of each entry
  // line's newline.
  std::vector<std::pair<PlanDesc, TuneConfig>> entries;
  std::vector<std::size_t> ends;
  for (std::size_t pos = 0; pos < file.size();) {
    const std::size_t eol = file.find('\n', pos);
    PlanDesc d;
    TuneConfig t;
    if (parse_wisdom_line(file.substr(pos, eol - pos), d, t)) {
      entries.emplace_back(d, t);
      ends.push_back(eol);
    }
    pos = eol + 1;
  }
  ASSERT_EQ(entries.size(), 2u);
  // A resident entry must survive every rejected import.
  const std::string resident =
      head +
      wisdom_line(PlanDesc::real3d(cube(32), Direction::Forward), {}) + "\n";

  for (std::size_t len = 0; len <= file.size(); ++len) {
    PlanRegistry reg(dev);
    ASSERT_EQ(reg.import_wisdom(resident), 1u);
    const std::size_t got = reg.import_wisdom(file.substr(0, len));
    // Entry lines the prefix holds whole, with or without their newline.
    std::size_t whole = 0;
    while (whole < ends.size() && ends[whole] <= len) ++whole;
    const bool at_line_end =
        whole > 0 && (len == ends[whole - 1] || len == ends[whole - 1] + 1);
    if (got == 0) {
      EXPECT_EQ(reg.wisdom_size(), 1u) << "prefix of " << len << " bytes";
      continue;
    }
    EXPECT_TRUE(at_line_end) << "imported " << got << " entries from "
                             << len << " bytes: " << file.substr(0, len);
    EXPECT_EQ(got, whole) << "prefix of " << len << " bytes";
    EXPECT_EQ(reg.wisdom_size(), 1 + got);
    for (std::size_t i = 0; i < std::min(got, whole); ++i) {
      EXPECT_EQ(reg.tuned_config(entries[i].first), entries[i].second)
          << "prefix of " << len << " bytes, entry " << i;
    }
    EXPECT_EQ(reg.tune_searches(), 0u) << "entries must come from wisdom";
  }
}

TEST(Wisdom, GarbledFieldsAreRejected) {
  TuneConfig back;
  for (const char* bad : {"tpb=128x", "slab=-1", "tpb=64 tpb=128", ""}) {
    EXPECT_FALSE(parse_tune_config(bad, back)) << '"' << bad << '"';
  }
  // The same defects inside an otherwise complete line, one at a time.
  const std::string good = TuneConfig{}.to_string();
  ASSERT_TRUE(parse_tune_config(good, back));
  const auto garble = [&](const std::string& from, const std::string& to) {
    std::string s = good;
    s.replace(s.find(from), from.size(), to);
    return s;
  };
  for (const std::string& bad :
       {garble("tpb=64", "tpb=64x"), garble("slab=0", "slab=-1"),
        garble("tpb=64", "tpb=4294967296"), garble("pad=16", "pad="),
        garble(" pitch=dense", ""), good + " tpb=128"}) {
    back = TuneConfig{};
    EXPECT_FALSE(parse_tune_config(bad, back)) << bad;
    EXPECT_EQ(back, TuneConfig{}) << "a rejected parse must not write";
  }

  // The description side of an entry line follows the same rule.
  const std::string line = wisdom_line(
      PlanDesc::out_of_core(128, 8, Direction::Inverse), TuneConfig{});
  PlanDesc d;
  ASSERT_TRUE(parse_wisdom_line(line, d, back));
  const auto garble_line = [&](const std::string& from,
                               const std::string& to) {
    std::string s = line;
    s.replace(s.find(from), from.size(), to);
    return s;
  };
  for (const std::string& bad :
       {garble_line("splits=8", "splits=8x"),
        garble_line("splits=8", "splits=-8"),
        garble_line("shape=128x128x128", "shape=128x128x128x2"),
        garble_line("shape=128x128x128", "shape=128x+128x128"),
        garble_line(" dir=inv", ""),
        garble_line("kind=outofcore", "kind=outofcore kind=outofcore")}) {
    EXPECT_FALSE(parse_wisdom_line(bad, d, back)) << bad;
  }
}

TEST(Wisdom, OutOfRangeValuesAreRejected) {
  // Well-formed values the tuner can never return: each would build a
  // plan that fails at its first launch (bps=0, tpb=0) or runs a config
  // nobody searched. The whole file is rejected, resident wisdom kept.
  Device dev(sim::geforce_8800_gtx());
  const std::string head = "schema " + std::to_string(kWisdomSchemaVersion) +
                           "\n" + wisdom_header(dev.spec()) + "\n";
  const PlanDesc in_core = PlanDesc::bandwidth3d(cube(64), Direction::Forward);
  const std::string good_line = wisdom_line(in_core, TuneConfig{});
  const std::string other_line =
      wisdom_line(PlanDesc::out_of_core(128, 8, Direction::Inverse), {});
  const std::string resident =
      head +
      wisdom_line(PlanDesc::real3d(cube(32), Direction::Forward), {}) + "\n";
  for (const auto& [from, to] :
       std::vector<std::pair<std::string, std::string>>{
           {"bps=3", "bps=0"},
           {"tpb=64", "tpb=0"},
           {"tpb=64", "tpb=4"},
           {"radix=16", "radix=3"},
           {"pad=16", "pad=7"},
           {"ftw=texture", "ftw=registers"},
           {"grid=0", "grid=5"},
           // Knobs the search tries only for other kinds of plan.
           {"slab=0", "slab=8"},
           {"pitch=dense", "pitch=padded"}}) {
    std::string bad = good_line;
    bad.replace(bad.find(from), from.size(), to);
    PlanDesc d;
    TuneConfig t;
    EXPECT_FALSE(parse_wisdom_line(bad, d, t)) << bad;

    PlanRegistry reg(dev);
    ASSERT_EQ(reg.import_wisdom(resident), 1u);
    const std::string before = reg.export_wisdom();
    std::string reason;
    EXPECT_EQ(
        reg.import_wisdom(head + other_line + "\n" + bad + "\n", &reason),
        0u)
        << bad;
    EXPECT_NE(reason.find(bad), std::string::npos) << bad << ": " << reason;
    EXPECT_EQ(reg.export_wisdom(), before) << bad;
  }
}

TEST(Wisdom, GarbledSchemaLineRejectsTheFile) {
  Device dev(sim::geforce_8800_gtx());
  const std::string version = std::to_string(kWisdomSchemaVersion);
  const std::string schema = "schema " + version;
  std::string file;
  {
    PlanRegistry reg(dev);
    ASSERT_EQ(reg.import_wisdom(
                  schema + "\n" + wisdom_header(dev.spec()) + "\n" +
                  wisdom_line(PlanDesc::bandwidth3d(cube(64),
                                                    Direction::Forward),
                              TuneConfig{}) +
                  "\n"),
              1u);
    file = reg.export_wisdom();
  }
  const std::size_t at = file.find(schema + "\n");
  ASSERT_NE(at, std::string::npos);
  // The schema number must be the whole rest of the line: a suffix, a
  // second token, a fraction, an extra space or a sign is no schema.
  for (const std::string& bad : {version + "x", version + " 7",
                                 version + ".9", " " + version,
                                 "+" + version}) {
    std::string garbled = file;
    garbled.replace(at, schema.size(), "schema " + bad);
    PlanRegistry reg(dev);
    std::string reason;
    EXPECT_EQ(reg.import_wisdom(garbled, &reason), 0u) << bad;
    EXPECT_EQ(reg.wisdom_size(), 0u) << bad;
    EXPECT_NE(reason.find("does not match this build's schema"),
              std::string::npos)
        << bad << ": " << reason;
  }
  PlanRegistry reg(dev);
  EXPECT_EQ(reg.import_wisdom(file), 1u);
}

TEST(Wisdom, SeededGarblerIsAllOrNothing) {
  Device dev(sim::geforce_8800_gtx());
  const std::string head = "schema " + std::to_string(kWisdomSchemaVersion) +
                           "\n" + wisdom_header(dev.spec()) + "\n";
  TuneConfig wide;
  wide.threads_per_block = 128;
  wide.coarse_radix = 8;
  TuneConfig deep;
  deep.shmem_pad_words = 8;
  deep.slab_depth = 16;
  TuneConfig padded;
  padded.coarse_twiddles = TwiddleSource::Constant;
  padded.pitch = PitchMode::Padded;
  std::string file;
  {
    PlanRegistry reg(dev);
    ASSERT_EQ(
        reg.import_wisdom(
            head +
            wisdom_line(PlanDesc::bandwidth3d(cube(64), Direction::Forward),
                        wide) +
            "\n" +
            wisdom_line(PlanDesc::out_of_core(128, 8, Direction::Inverse),
                        deep) +
            "\n" +
            wisdom_line(PlanDesc::mixed3d(cube(100), Direction::Forward),
                        padded) +
            "\n"),
        3u);
    file = reg.export_wisdom();
  }
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < file.size();) {
    const std::size_t eol = file.find('\n', pos);
    lines.push_back(file.substr(pos, eol - pos));
    pos = eol + 1;
  }
  ASSERT_EQ(lines.size(), 6u) << file;
  const auto join = [](const std::vector<std::string>& ls) {
    std::string s;
    for (const std::string& l : ls) s += l + "\n";
    return s;
  };
  const auto plan_lines = [](const std::string& text) {
    std::size_t n = text.rfind("plan ", 0) == 0 ? 1 : 0;
    for (std::size_t at = text.find("\nplan "); at != std::string::npos;
         at = text.find("\nplan ", at + 1)) {
      ++n;
    }
    return n;
  };
  const std::string resident =
      head +
      wisdom_line(PlanDesc::real3d(cube(32), Direction::Forward), {}) + "\n";

  SplitMix64 rng(0x9a4b1e5);
  for (int i = 0; i < 400; ++i) {
    std::vector<std::string> ls = lines;
    std::string garbled;
    std::string what;
    const std::size_t a = rng.below(ls.size());
    switch (i % 4) {
      case 0: {
        garbled = file;
        const std::size_t at = rng.below(garbled.size());
        garbled[at] = static_cast<char>(
            static_cast<unsigned char>(garbled[at]) ^ (1 + rng.below(255)));
        what = "byte " + std::to_string(at) + " flipped";
        break;
      }
      case 1: {
        const std::size_t b = (a + 1 + rng.below(ls.size() - 1)) % ls.size();
        std::swap(ls[a], ls[b]);
        what = "lines " + std::to_string(a) + " and " + std::to_string(b) +
               " swapped";
        break;
      }
      case 2: {
        const std::size_t to = rng.below(ls.size() + 1);
        ls.insert(ls.begin() + static_cast<std::ptrdiff_t>(to), ls[a]);
        what = "line " + std::to_string(a) + " duplicated at " +
               std::to_string(to);
        break;
      }
      default:
        ls.erase(ls.begin() + static_cast<std::ptrdiff_t>(a));
        what = "line " + std::to_string(a) + " dropped";
        break;
    }
    if (garbled.empty()) garbled = join(ls);
    PlanRegistry reg(dev);
    ASSERT_EQ(reg.import_wisdom(resident), 1u);
    const std::string before = reg.export_wisdom();
    std::string reason;
    std::size_t got = 0;
    EXPECT_NO_THROW(got = reg.import_wisdom(garbled, &reason)) << what;
    if (got == 0) {
      EXPECT_FALSE(reason.empty()) << what;
      EXPECT_EQ(reg.wisdom_size(), 1u) << what;
      EXPECT_EQ(reg.export_wisdom(), before) << what;
    } else {
      EXPECT_EQ(got, plan_lines(garbled)) << what << ":\n" << garbled;
    }
  }
}

}  // namespace
}  // namespace repro::gpufft
