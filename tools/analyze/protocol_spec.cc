#include "analyze/protocol_spec.h"

#include <fstream>
#include <sstream>

namespace panda {
namespace lint {

namespace {

const std::set<std::string>& KnownRoles() {
  static const std::set<std::string>* kRoles =
      new std::set<std::string>{"client", "server", "app", "any"};
  return *kRoles;
}

const std::set<std::string>& KnownIntegrity() {
  static const std::set<std::string>* kClasses = new std::set<std::string>{
      "wire-crc", "header-checked", "control", "unchecked"};
  return *kClasses;
}

bool Fail(std::string* error, int line, const std::string& what) {
  std::ostringstream os;
  os << "protocol.spec:" << line << ": " << what;
  *error = os.str();
  return false;
}

bool ParseRoles(const std::string& value, std::set<std::string>* out) {
  std::istringstream is(value);
  std::string role;
  while (std::getline(is, role, ',')) {
    if (role.empty() || KnownRoles().count(role) == 0) return false;
    out->insert(role);
  }
  return !out->empty();
}

}  // namespace

const MessageSpec* ProtocolSpec::Find(const std::string& tag) const {
  for (const MessageSpec& m : messages) {
    if (m.name == tag) return &m;
  }
  return nullptr;
}

const PhaseSpec* ProtocolSpec::FindPhase(const std::string& name) const {
  for (const PhaseSpec& p : phases) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

bool ProtocolSpec::FailureCapable(const std::string& phase) const {
  const PhaseSpec* p = FindPhase(phase);
  return p != nullptr && p->failure_capable;
}

bool ParseProtocolSpec(const std::string& text, ProtocolSpec* spec,
                       std::string* error) {
  *spec = ProtocolSpec{};
  std::istringstream is(text);
  std::string raw;
  int lineno = 0;
  while (std::getline(is, raw)) {
    ++lineno;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    std::istringstream fields(raw);
    std::string keyword;
    if (!(fields >> keyword)) continue;

    if (keyword == "phase") {
      PhaseSpec phase;
      phase.line = lineno;
      if (!(fields >> phase.name)) {
        return Fail(error, lineno, "phase needs a name");
      }
      std::string flag;
      if (fields >> flag) {
        if (flag != "failure-capable") {
          return Fail(error, lineno, "unknown phase flag '" + flag + "'");
        }
        phase.failure_capable = true;
      }
      if (spec->FindPhase(phase.name) != nullptr) {
        return Fail(error, lineno, "duplicate phase '" + phase.name + "'");
      }
      spec->phases.push_back(std::move(phase));
    } else if (keyword == "message") {
      MessageSpec msg;
      msg.line = lineno;
      if (!(fields >> msg.name)) {
        return Fail(error, lineno, "message needs a tag name");
      }
      if (spec->Find(msg.name) != nullptr) {
        return Fail(error, lineno, "duplicate message '" + msg.name + "'");
      }
      std::string attr;
      while (fields >> attr) {
        const std::size_t eq = attr.find('=');
        if (eq == std::string::npos) {
          if (attr == "aux") {
            msg.aux = true;
            continue;
          }
          return Fail(error, lineno,
                      "unknown message attribute '" + attr + "'");
        }
        const std::string key = attr.substr(0, eq);
        const std::string value = attr.substr(eq + 1);
        if (key == "phase") {
          msg.phase = value;
        } else if (key == "integrity") {
          msg.integrity = value;
        } else if (key == "send") {
          if (!ParseRoles(value, &msg.send_roles)) {
            return Fail(error, lineno, "bad send roles '" + value + "'");
          }
        } else if (key == "recv") {
          if (!ParseRoles(value, &msg.recv_roles)) {
            return Fail(error, lineno, "bad recv roles '" + value + "'");
          }
        } else {
          return Fail(error, lineno, "unknown message key '" + key + "'");
        }
      }
      if (msg.phase.empty() || spec->FindPhase(msg.phase) == nullptr) {
        return Fail(error, lineno, "message '" + msg.name +
                                       "' references undeclared phase '" +
                                       msg.phase + "'");
      }
      if (KnownIntegrity().count(msg.integrity) == 0) {
        return Fail(error, lineno, "message '" + msg.name +
                                       "' has unknown integrity class '" +
                                       msg.integrity + "'");
      }
      if (msg.send_roles.empty() || msg.recv_roles.empty()) {
        return Fail(error, lineno,
                    "message '" + msg.name + "' needs send= and recv= roles");
      }
      spec->messages.push_back(std::move(msg));
    } else if (keyword == "boundary") {
      BoundarySpec boundary;
      boundary.line = lineno;
      if (!(fields >> boundary.function)) {
        return Fail(error, lineno, "boundary needs a function name");
      }
      spec->boundaries.push_back(std::move(boundary));
    } else if (keyword == "stage") {
      StageSpec stage;
      stage.line = lineno;
      if (!(fields >> stage.path >> stage.function)) {
        return Fail(error, lineno, "stage needs a path and a function name");
      }
      spec->stages.push_back(std::move(stage));
    } else {
      return Fail(error, lineno, "unknown keyword '" + keyword + "'");
    }
  }
  if (spec->messages.empty()) {
    return Fail(error, lineno, "spec declares no messages");
  }
  return true;
}

bool LoadProtocolSpec(const std::string& path, ProtocolSpec* spec,
                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read protocol spec at " + path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseProtocolSpec(buf.str(), spec, error);
}

std::string ProtocolDot(const ProtocolSpec& spec) {
  std::ostringstream os;
  os << "// Generated by `panda_proto --dot` from"
     << " tools/analyze/protocol.spec.\n"
     << "// Red edges travel in failure-capable phases (docs/PROTOCOL.md).\n"
     << "digraph panda_protocol {\n"
     << "  rankdir=LR;\n"
     << "  node [shape=box, fontname=\"monospace\"];\n"
     << "  edge [fontname=\"monospace\", fontsize=10];\n";
  for (const MessageSpec& m : spec.messages) {
    const bool fc = spec.FailureCapable(m.phase);
    for (const std::string& s : m.send_roles) {
      for (const std::string& r : m.recv_roles) {
        os << "  \"" << s << "\" -> \"" << r << "\" [label=\"" << m.name
           << "\\n(" << m.phase << ", " << m.integrity << ")\"";
        if (fc) os << ", color=\"#b22222\"";
        os << "];\n";
      }
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace lint
}  // namespace panda
