#include "mc/trace.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace panda::mc {

namespace {

constexpr char kHeader[] = "panda-mctrace v1";

std::vector<std::string> SplitWords(const std::string& line) {
  std::vector<std::string> words;
  std::istringstream in(line);
  std::string word;
  while (in >> word) words.push_back(word);
  return words;
}

std::int64_t ParseInt(const std::string& word, const std::string& line) {
  try {
    size_t used = 0;
    const std::int64_t value = std::stoll(word, &used);
    if (used != word.size()) throw std::invalid_argument(word);
    return value;
  } catch (const std::exception&) {
    throw PandaError("mctrace: bad integer '" + word + "' in: " + line);
  }
}

std::pair<std::string, std::string> SplitKeyValue(const std::string& rest,
                                                 const std::string& line) {
  const size_t eq = rest.find('=');
  if (eq == std::string::npos) {
    throw PandaError("mctrace: expected key=value in: " + line);
  }
  return {rest.substr(0, eq), rest.substr(eq + 1)};
}

}  // namespace

void SortTrail(std::vector<TrailEntry>* trail) {
  std::sort(trail->begin(), trail->end(),
            [](const TrailEntry& x, const TrailEntry& y) {
              if (x.vtime != y.vtime) return x.vtime < y.vtime;
              return x.key < y.key;
            });
}

std::vector<Decision> Alternatives(const TrailEntry& entry) {
  std::vector<Decision> out;
  switch (entry.key.kind) {
    case ChoiceKind::kLoss:
      for (int action = 0; action <= static_cast<int>(LossAction::kDelay);
           ++action) {
        if ((entry.allowed &
             LossActionBit(static_cast<LossAction>(action))) == 0) {
          continue;
        }
        if (action != entry.decision) out.push_back(action);
      }
      break;
    case ChoiceKind::kKill:
      if (entry.decision != 0) out.push_back(0);
      if (entry.decision != 1) out.push_back(1);
      break;
    case ChoiceKind::kDelivery: {
      // Alternatives are the candidate SOURCES not taken (decisions are
      // by source rank, not index). A default decision took the
      // earliest-deposited candidate; duplicate sources collapse — one
      // forced child per distinct source.
      const int taken = entry.decision >= 0
                            ? entry.decision
                            : (entry.options.empty() ? -1
                                                     : entry.options.front());
      for (int src : entry.options) {
        if (src == taken) continue;
        if (std::find(out.begin(), out.end(), src) != out.end()) continue;
        out.push_back(src);
      }
      break;
    }
  }
  return out;
}

bool IsDefaultDecision(ChoiceKind kind, Decision decision) {
  switch (kind) {
    case ChoiceKind::kLoss:
      return decision == static_cast<int>(LossAction::kDeliver);
    case ChoiceKind::kKill:
      return decision == 0;
    case ChoiceKind::kDelivery:
      return decision < 0;  // -1: earliest-deposited candidate
  }
  return true;
}

std::string AssignmentFingerprint(const std::vector<TrailEntry>& trail) {
  std::vector<const TrailEntry*> sorted;
  sorted.reserve(trail.size());
  for (const TrailEntry& entry : trail) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(),
            [](const TrailEntry* x, const TrailEntry* y) {
              return x->key < y->key;
            });
  std::ostringstream out;
  for (const TrailEntry* entry : sorted) {
    if (IsDefaultDecision(entry->key.kind, entry->decision)) continue;
    out << static_cast<int>(entry->key.kind) << ':' << entry->key.a << ':'
        << entry->key.b << ':' << entry->key.seq << '=' << entry->decision
        << ';';
  }
  return out.str();
}

std::string LossActionName(LossAction action) {
  switch (action) {
    case LossAction::kDeliver: return "deliver";
    case LossAction::kDrop: return "drop";
    case LossAction::kDup: return "dup";
    case LossAction::kReorder: return "reorder";
    case LossAction::kDelay: return "delay";
  }
  return "deliver";
}

LossAction LossActionFromName(const std::string& name) {
  if (name == "deliver") return LossAction::kDeliver;
  if (name == "drop") return LossAction::kDrop;
  if (name == "dup") return LossAction::kDup;
  if (name == "reorder") return LossAction::kReorder;
  if (name == "delay") return LossAction::kDelay;
  throw PandaError("mctrace: unknown loss action '" + name + "'");
}

std::string DescribeKey(const ChoiceKey& key) {
  std::ostringstream out;
  switch (key.kind) {
    case ChoiceKind::kLoss:
      out << "loss " << key.a << "->" << key.b << " #" << key.seq;
      break;
    case ChoiceKind::kKill:
      out << "kill rank " << key.a << " @send " << key.seq;
      break;
    case ChoiceKind::kDelivery:
      out << "deliver rank " << key.a << " tag " << key.b << " #" << key.seq;
      break;
  }
  return out.str();
}

std::string EncodeMcTrace(const McTrace& trace) {
  std::ostringstream out;
  out << kHeader << '\n';
  for (const auto& [key, value] : trace.config) {
    out << "config " << key << '=' << value << '\n';
  }
  for (const auto& [key, decision] : trace.assignment) {
    switch (key.kind) {
      case ChoiceKind::kLoss:
        out << "choice loss " << key.a << ' ' << key.b << ' ' << key.seq
            << ' ' << LossActionName(static_cast<LossAction>(decision))
            << '\n';
        break;
      case ChoiceKind::kKill:
        out << "choice kill " << key.a << ' ' << key.seq << ' ' << decision
            << '\n';
        break;
      case ChoiceKind::kDelivery:
        out << "choice deliver " << key.a << ' ' << key.b << ' ' << key.seq
            << ' ' << decision << '\n';
        break;
    }
  }
  for (const auto& [key, value] : trace.expect) {
    out << "expect " << key << '=' << value << '\n';
  }
  return out.str();
}

McTrace DecodeMcTrace(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  // Comments and blank lines may precede the version header, so a
  // checked-in schedule can open with prose explaining what it pins.
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    saw_header = (line == kHeader);
    break;
  }
  if (!saw_header) {
    throw PandaError("mctrace: missing '" + std::string(kHeader) +
                     "' header");
  }
  McTrace trace;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> words = SplitWords(line);
    if (words.empty()) continue;
    if (words[0] == "config") {
      if (words.size() != 2) throw PandaError("mctrace: bad line: " + line);
      trace.config.push_back(SplitKeyValue(words[1], line));
    } else if (words[0] == "expect") {
      if (words.size() != 2) throw PandaError("mctrace: bad line: " + line);
      trace.expect.push_back(SplitKeyValue(words[1], line));
    } else if (words[0] == "choice") {
      if (words.size() < 2) throw PandaError("mctrace: bad line: " + line);
      ChoiceKey key;
      Decision decision = 0;
      if (words[1] == "loss" && words.size() == 6) {
        key.kind = ChoiceKind::kLoss;
        key.a = static_cast<int>(ParseInt(words[2], line));
        key.b = static_cast<int>(ParseInt(words[3], line));
        key.seq = ParseInt(words[4], line);
        decision = static_cast<int>(LossActionFromName(words[5]));
      } else if (words[1] == "kill" && words.size() == 5) {
        key.kind = ChoiceKind::kKill;
        key.a = static_cast<int>(ParseInt(words[2], line));
        key.seq = ParseInt(words[3], line);
        decision = static_cast<int>(ParseInt(words[4], line));
      } else if (words[1] == "deliver" && words.size() == 6) {
        key.kind = ChoiceKind::kDelivery;
        key.a = static_cast<int>(ParseInt(words[2], line));
        key.b = static_cast<int>(ParseInt(words[3], line));
        key.seq = ParseInt(words[4], line);
        decision = static_cast<int>(ParseInt(words[5], line));
      } else {
        throw PandaError("mctrace: bad choice line: " + line);
      }
      trace.assignment[key] = decision;
    } else {
      throw PandaError("mctrace: unknown directive: " + line);
    }
  }
  return trace;
}

}  // namespace panda::mc
