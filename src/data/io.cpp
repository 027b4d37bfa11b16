#include "src/data/io.h"

#include <charconv>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/digg/story.h"

namespace digg::data {

namespace {

std::ofstream open_out(const std::filesystem::path& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  // Round-trip exact doubles: a corpus written to CSV and reloaded must be
  // value-identical to one restored from a binary snapshot.
  out.precision(std::numeric_limits<double>::max_digits10);
  return out;
}

std::ifstream open_in(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return in;
}

/// Every parse error carries file name and 1-based line number so a broken
/// row in a multi-million-line vote file can be found directly.
[[noreturn]] void fail_at(const std::filesystem::path& path, std::size_t line,
                          const std::string& message) {
  throw std::runtime_error(path.string() + ":" + std::to_string(line) + ": " +
                           message);
}

std::vector<std::string_view> split(std::string_view line, char sep = ',') {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

template <typename T>
T parse_number(std::string_view s, const char* what) {
  T value{};
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end)
    throw std::runtime_error(std::string("bad ") + what + ": '" +
                             std::string(s) + "'");
  return value;
}

double parse_double(std::string_view s, const char* what) {
  // std::from_chars<double> is not universally available; go through stod.
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(s), &used);
    if (used != s.size()) throw std::invalid_argument("trailing chars");
    return v;
  } catch (const std::exception&) {
    throw std::runtime_error(std::string("bad ") + what + ": '" +
                             std::string(s) + "'");
  }
}

void expect_header(std::ifstream& in, const std::string& expected,
                   const std::filesystem::path& path) {
  std::string line;
  if (!std::getline(in, line) || line != expected)
    throw std::runtime_error("bad header in " + path.string() +
                             " (expected '" + expected + "')");
}

/// Runs `body(fields)` for each data row, wrapping any parse exception with
/// the file name and line number. Empty lines are skipped.
template <typename Body>
void for_each_row(const std::filesystem::path& path,
                  const std::string& header, Body&& body) {
  std::ifstream in = open_in(path);
  expect_header(in, header, path);
  std::string line;
  std::size_t lineno = 1;  // header was line 1
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    try {
      body(split(line), line);
    } catch (const std::runtime_error& e) {
      fail_at(path, lineno, e.what());
    }
  }
}

}  // namespace

void save_corpus(const Corpus& corpus, const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);

  {
    std::ofstream out = open_out(dir / "network.csv");
    out << "fan,target\n";
    for (graph::NodeId u = 0; u < corpus.network.node_count(); ++u) {
      for (graph::NodeId v : corpus.network.friends(u)) {
        out << u << ',' << v << '\n';  // u watches v: u is a fan of v
      }
    }
  }
  {
    std::ofstream out = open_out(dir / "stories.csv");
    out << "id,section,submitter,submitted_at,promoted_at,quality\n";
    auto emit = [&](const Story& s, const char* section) {
      out << s.id << ',' << section << ',' << s.submitter << ','
          << s.submitted_at << ',';
      if (s.promoted_at) out << *s.promoted_at;
      out << ',' << s.quality << '\n';
    };
    for (const Story& s : corpus.front_page) emit(s, "front_page");
    for (const Story& s : corpus.upcoming) emit(s, "upcoming");
  }
  {
    std::ofstream out = open_out(dir / "votes.csv");
    out << "story_id,user,time\n";
    auto emit = [&](const Story& s) {
      const auto voters = s.voters();
      const auto times = s.times();
      for (std::size_t i = 0; i < voters.size(); ++i)
        out << s.id << ',' << voters[i] << ',' << times[i] << '\n';
    };
    for (const Story& s : corpus.front_page) emit(s);
    for (const Story& s : corpus.upcoming) emit(s);
  }
  {
    std::ofstream out = open_out(dir / "top_users.csv");
    out << "user\n";
    for (UserId u : corpus.top_users) out << u << '\n';
  }
}

Corpus load_corpus(const std::filesystem::path& dir) {
  Corpus corpus;

  {
    graph::DigraphBuilder builder;
    for_each_row(dir / "network.csv", "fan,target",
                 [&](const std::vector<std::string_view>& fields,
                     const std::string& line) {
                   if (fields.size() != 2)
                     throw std::runtime_error("bad network row: " + line);
                   builder.add_follow(
                       parse_number<graph::NodeId>(fields[0], "fan"),
                       parse_number<graph::NodeId>(fields[1], "target"));
                 });
    corpus.network = builder.build();
  }
  const std::size_t user_count = corpus.network.node_count();

  // Stories and votes are staged as owning platform::Story records, then
  // bulk-copied into the corpus arena in file order. Story ids are any
  // 32-bit values, so the id -> staged index map is keyed, not dense.
  std::vector<platform::Story> staged;
  std::vector<Corpus::Section> sections;
  std::unordered_map<StoryId, std::uint32_t> index_of;

  for_each_row(
      dir / "stories.csv",
      "id,section,submitter,submitted_at,promoted_at,quality",
      [&](const std::vector<std::string_view>& fields,
          const std::string& line) {
        if (fields.size() != 6)
          throw std::runtime_error("bad stories row: " + line);
        platform::Story s;
        s.id = parse_number<StoryId>(fields[0], "story id");
        s.submitter = parse_number<UserId>(fields[2], "submitter");
        if (s.submitter >= user_count)
          throw std::runtime_error("submitter " + std::to_string(s.submitter) +
                                   " outside the network (" +
                                   std::to_string(user_count) + " users)");
        s.submitted_at = parse_double(fields[3], "submitted_at");
        if (!fields[4].empty()) {
          s.promoted_at = parse_double(fields[4], "promoted_at");
          s.phase = platform::StoryPhase::kFrontPage;
        }
        s.quality = parse_double(fields[5], "quality");
        const bool is_front = fields[1] == "front_page";
        if (!is_front && fields[1] != "upcoming")
          throw std::runtime_error("bad section: " + line);
        if (is_front != s.promoted_at.has_value())
          throw std::runtime_error("section/promoted_at mismatch: " + line);
        const auto staged_index = static_cast<std::uint32_t>(staged.size());
        if (!index_of.try_emplace(s.id, staged_index).second)
          throw std::runtime_error("duplicate story id " +
                                   std::to_string(s.id));
        staged.push_back(std::move(s));
        sections.push_back(is_front ? Corpus::Section::kFrontPage
                                    : Corpus::Section::kUpcoming);
      });

  for_each_row(dir / "votes.csv", "story_id,user,time",
               [&](const std::vector<std::string_view>& fields,
                   const std::string& line) {
                 if (fields.size() != 3)
                   throw std::runtime_error("bad votes row: " + line);
                 const auto story_id =
                     parse_number<StoryId>(fields[0], "story id");
                 const auto staged_at = index_of.find(story_id);
                 if (staged_at == index_of.end())
                   throw std::runtime_error("vote for unknown story: " + line);
                 const UserId user = parse_number<UserId>(fields[1], "voter");
                 if (user >= user_count)
                   throw std::runtime_error(
                       "voter " + std::to_string(user) +
                       " outside the network (" + std::to_string(user_count) +
                       " users)");
                 platform::Story& s = staged[staged_at->second];
                 s.voters.push_back(user);
                 s.times.push_back(parse_double(fields[2], "vote time"));
               });

  for_each_row(dir / "top_users.csv", "user",
               [&](const std::vector<std::string_view>& fields,
                   const std::string& line) {
                 if (fields.size() != 1)
                   throw std::runtime_error("bad top_users row: " + line);
                 const UserId u = parse_number<UserId>(fields[0], "top user");
                 if (u >= user_count)
                   throw std::runtime_error(
                       "top user " + std::to_string(u) +
                       " outside the network (" + std::to_string(user_count) +
                       " users)");
                 corpus.top_users.push_back(u);
                 (void)line;
               });

  for (std::size_t i = 0; i < staged.size(); ++i)
    corpus.add_story(staged[i], sections[i]);

  try {
    validate(corpus);
  } catch (const std::runtime_error& err) {
    throw std::runtime_error(dir.string() + ": " + err.what());
  }
  return corpus;
}

}  // namespace digg::data
