#include "runtime/scenario_loader.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <variant>
#include <vector>

#include "contingency/contingency.h"
#include "fault/chaos_campaign.h"
#include "topogen/topogen.h"
#include "util/strfmt.h"
#include "workload/generators.h"

namespace slate {
namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::runtime_error(strfmt("line %zu: %s", line, message.c_str()));
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream stream(line);
  std::string token;
  while (stream >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

// "25ms" -> 0.025; "3s" -> 3; "150us" -> 1.5e-4; bare numbers are seconds.
// Durations are spans of time: negatives are always a spec error.
double parse_duration(const std::string& text, std::size_t line) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    fail(line, "bad duration '" + text + "'");
  }
  if (value < 0.0) fail(line, "negative duration '" + text + "'");
  const std::string unit = text.substr(pos);
  if (unit.empty() || unit == "s") return value;
  if (unit == "ms") return value * 1e-3;
  if (unit == "us") return value * 1e-6;
  fail(line, "unknown duration unit '" + unit + "'");
}

// "2KB" -> 2048; "1MB" -> 1048576; "512B"/"512" -> 512.
std::uint64_t parse_bytes(const std::string& text, std::size_t line) {
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(text, &pos);
  } catch (const std::exception&) {
    fail(line, "bad size '" + text + "'");
  }
  if (value < 0.0) fail(line, "negative size '" + text + "'");
  const std::string unit = text.substr(pos);
  double scale = 1.0;
  if (unit.empty() || unit == "B") {
    scale = 1.0;
  } else if (unit == "KB") {
    scale = 1024.0;
  } else if (unit == "MB") {
    scale = 1024.0 * 1024.0;
  } else {
    fail(line, "unknown size unit '" + unit + "'");
  }
  return static_cast<std::uint64_t>(value * scale);
}

double parse_number(const std::string& text, std::size_t line) {
  try {
    return std::stod(text);
  } catch (const std::exception&) {
    fail(line, "bad number '" + text + "'");
  }
}

// "@5s" -> 5: the start time of a ramp, pulse, fault or drain.
double parse_start(const std::string& token, std::size_t line) {
  if (token[0] != '@') {
    fail(line, "expected @<start-time>, got '" + token + "'");
  }
  return parse_duration(token.substr(1), line);
}

// --- Attributes ------------------------------------------------------------
// Every optional knob of a directive is a key=value attribute: one row of a
// table, applied by parse_attrs under the shared rules of
// docs/scenario_format.md ("Attributes").

// How an attribute value is read.
enum class Kind {
  kNumber,    // "0.5"
  kDuration,  // "25ms"; never negative
  kBytes,     // "2KB"
  kCount,     // whole number: "servers=-2" must not wrap into a huge
              // unsigned, nor "servers=1.5" truncate, nor "inf" overflow
  kOnOff,     // "on" | "off"
  kText,      // kept verbatim
  kCustom,    // handed to the row's own parser
};
using enum Kind;

// The values an attribute accepts; an open bound excludes its endpoint.
struct Range {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};
constexpr Range gt(double lo) { return {.lo = lo, .lo_open = true}; }
constexpr Range ge(double lo) { return {.lo = lo}; }
// oo(0, 1) is (0, 1), oc(0, 1) is (0, 1], cc(0, 1) is [0, 1].
constexpr Range oo(double lo, double hi) { return {lo, hi, true, true}; }
constexpr Range oc(double lo, double hi) { return {lo, hi, true, false}; }
constexpr Range cc(double lo, double hi) { return {lo, hi, false, false}; }

// "> 0", "<= 256", "in (0, 1]".
std::string range_text(const Range& r) {
  if (std::isinf(r.hi)) return strfmt("%s %g", r.lo_open ? ">" : ">=", r.lo);
  if (std::isinf(r.lo)) return strfmt("%s %g", r.hi_open ? "<" : "<=", r.hi);
  return strfmt("in %c%g, %g%c", r.lo_open ? '(' : '[', r.lo, r.hi,
                r.hi_open ? ')' : ']');
}

using Parser = std::function<void(const std::string& value)>;
// Where a value lands. The unsigned pointer types cover std::size_t and
// std::uint64_t on every data model.
using Target = std::variant<double*, unsigned*, unsigned long*,
                            unsigned long long*, bool*, std::string*, Parser>;

struct Attr {
  const char* key;
  Target target;
  Kind kind = kNumber;
  Range range = {};
  bool required = false;
};

// Stores a parsed number in a numeric target; whole counts reach unsigned
// targets through uint64_t.
template <typename V>
void store(const Target& target, V value) {
  std::visit(
      [value](const auto& p) {
        using T = std::remove_pointer_t<std::decay_t<decltype(p)>>;
        if constexpr (std::is_same_v<T, double>) {
          *p = static_cast<double>(value);
        } else if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>) {
          *p = static_cast<T>(static_cast<std::uint64_t>(value));
        } else {
          throw std::logic_error("attribute target is not numeric");
        }
      },
      target);
}

void set_attr(const Attr& attr, const std::string& text, std::size_t line) {
  const std::string key = attr.key;
  double value = 0.0;
  switch (attr.kind) {
    case kText:
      *std::get<std::string*>(attr.target) = text;
      return;
    case kCustom:
      std::get<Parser>(attr.target)(text);
      return;
    case kOnOff:
      if (text != "on" && text != "off") {
        fail(line, key + " must be on or off, got '" + text + "'");
      }
      *std::get<bool*>(attr.target) = text == "on";
      return;
    case kBytes:
      store(attr.target, parse_bytes(text, line));
      return;
    case kDuration:
      value = parse_duration(text, line);
      break;
    case kNumber:
    case kCount:
      value = parse_number(text, line);
      break;
  }
  const Range& r = attr.range;
  const bool low = r.lo_open ? value <= r.lo : value < r.lo;
  const bool high = r.hi_open ? value >= r.hi : value > r.hi;
  if (attr.kind == kCount) {
    if (!std::isfinite(value) || value != std::floor(value)) {
      fail(line, key + " must be an integer, got '" + text + "'");
    }
    if (low) {
      fail(line, key + " must be " +
                     range_text({.lo = r.lo, .lo_open = r.lo_open}) + ", got '" +
                     text + "'");
    }
    if (high) {
      fail(line, key + " must be " +
                     range_text({.hi = r.hi, .hi_open = r.hi_open}));
    }
  } else if (low || high) {
    fail(line, key + " must be " + range_text(r));
  }
  store(attr.target, value);
}

// Applies the key=value tokens of one directive line to `table`. Rejects a
// token without '=', an unknown or repeated key, a value outside its row's
// range and, with the message `missing`, an absent required key. Returns
// the keys seen.
std::set<std::string> parse_attrs(std::span<const std::string> tokens,
                                  std::size_t line, const std::string& family,
                                  const std::vector<Attr>& table,
                                  const std::string& missing) {
  std::set<std::string> seen;
  for (const std::string& token : tokens) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      fail(line, "expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const auto row = std::find_if(table.begin(), table.end(),
                                  [&](const Attr& a) { return key == a.key; });
    if (row == table.end()) {
      fail(line, "unknown " + family + " attribute '" + key + "'");
    }
    if (!seen.insert(key).second) {
      fail(line, "duplicate " + family + " attribute '" + key + "'");
    }
    set_attr(*row, token.substr(eq + 1), line);
  }
  for (const Attr& a : table) {
    if (a.required && seen.count(a.key) == 0) fail(line, missing);
  }
  return seen;
}

// Build-time info per class: node label -> node index.
struct ClassBuild {
  ClassId id;
  std::map<std::string, std::size_t> labels;
};

struct DeployDirective {
  std::size_t line;
  std::string service;  // "*" = all
  std::string cluster;  // "*" = all
  unsigned servers = 1;
  double capacity = 0.0;
  bool undeploy = false;
};

// Plain steps and the time-varying generators share one directive list so
// finalize replays them in file order — steps for one stream must land in
// increasing time order regardless of which form produced them.
struct DemandDirective {
  std::size_t line;
  std::string kind = "step";  // step | diurnal | ramp | pulse
  std::string cls;
  std::string cluster;
  double start_time = 0.0;
  double rps = 0.0;
  DiurnalSpec diurnal;
  RampSpec ramp;
  PulseSpec pulse;
};

// Names are resolved at finalize time: faults may reference clusters and
// services declared later in the file.
struct FaultDirective {
  std::size_t line;
  std::string kind;  // outage | blackout | corrupt | slowdown | link | solver
  std::string a;     // cluster / service / edge source
  std::string b;     // slowdown cluster ("*" = all) / edge destination
  double start = 0.0;
  double duration = 0.0;
  double factor = 1.0;
  double extra = 0.0;
  bool partition = false;
  bool has_factor = false;
};

// Per-class overload settings reference classes that may be declared later;
// resolved at finalize like faults.
struct OverloadClassDirective {
  std::size_t line;
  std::string kind;  // deadline | priority
  std::string cls;
  double deadline = 0.0;
  int priority = 0;
};

// Per-class admission override ("admission class <name> ..."); class names
// may be forward references, resolved at finalize.
struct AdmissionClassDirective {
  std::size_t line;
  std::string cls;
  double rate = 0.0;  // 0 = keep default
  double slo = 0.0;   // 0 = keep default
};

// Coordinated drain; the cluster may be a forward reference, resolved at
// finalize like faults.
struct DrainDirective {
  std::size_t line;
  std::string cluster;
  DrainSpec spec;  // spec.cluster filled at finalize
};

// Seeded chaos campaign; expanded at finalize against the finished world
// (cluster/service counts must be known).
struct CampaignDirective {
  std::size_t line;
  CampaignSpec spec;
};

}  // namespace

Scenario load_scenario(std::istream& input) {
  Scenario scenario;
  scenario.app = std::make_unique<Application>();
  scenario.topology = std::make_unique<Topology>();

  std::map<std::string, ClassBuild> classes;
  // Class specs are accumulated and registered with the Application at the
  // end (graphs must be complete before add_class).
  std::map<std::string, TrafficClassSpec> class_specs;
  std::vector<std::string> class_order;
  std::vector<DeployDirective> deploys;
  std::vector<DemandDirective> demands;
  std::vector<FaultDirective> faults;
  std::vector<OverloadClassDirective> overloads;
  std::vector<AdmissionClassDirective> admissions;
  std::vector<DrainDirective> drains;
  std::vector<CampaignDirective> campaigns;
  double default_egress = -1.0;
  // `topology synth` replaces the hand-written world wholesale; structural
  // directives on either side of it would silently fight the generator, so
  // both orders are spec errors.
  bool synthesized = false;

  std::string raw;
  std::size_t line_number = 0;
  while (std::getline(input, raw)) {
    ++line_number;
    const auto tokens = tokenize(raw);
    if (tokens.empty()) continue;
    const std::string& directive = tokens[0];

    auto need = [&](std::size_t count, const char* usage) {
      if (tokens.size() < count) {
        fail(line_number, std::string("usage: ") + usage);
      }
    };
    // Fixed-arity directives reject trailing garbage instead of silently
    // ignoring it (a misspelled attribute must not become a no-op).
    auto exact = [&](std::size_t count, const char* usage) {
      need(count, usage);
      if (tokens.size() > count) {
        fail(line_number, "unexpected trailing token '" + tokens[count] +
                              "' (usage: " + usage + ")");
      }
    };
    // This line's key=value attributes from token `first` on.
    auto attrs = [&](std::size_t first, const std::string& family,
                     const std::vector<Attr>& table,
                     const std::string& missing = "") {
      return parse_attrs(std::span(tokens).subspan(first), line_number, family,
                         table, missing);
    };
    auto find_cluster = [&](const std::string& name) {
      const ClusterId id = scenario.topology->find_cluster(name);
      if (!id.valid()) fail(line_number, "unknown cluster '" + name + "'");
      return id;
    };
    auto find_service = [&](const std::string& name) {
      const ServiceId id = scenario.app->find_service(name);
      if (!id.valid()) fail(line_number, "unknown service '" + name + "'");
      return id;
    };

    // Structural directives describe the world by hand; they are mutually
    // exclusive with `topology synth` (which generates all of them).
    auto reject_after_synth = [&] {
      if (synthesized) {
        fail(line_number, "'" + directive +
                              "' cannot follow 'topology synth' (the "
                              "generator owns clusters, services, classes, "
                              "and pricing)");
      }
    };

    if (directive == "scenario") {
      exact(2, "scenario <name>");
      scenario.name = tokens[1];
    } else if (directive == "topology") {
      need(3, "topology synth key=value [key=value...]");
      if (tokens[1] != "synth") {
        fail(line_number, "unknown topology directive '" + tokens[1] +
                              "' (expected synth)");
      }
      if (synthesized) {
        fail(line_number, "duplicate 'topology synth'");
      }
      if (scenario.topology->cluster_count() != 0 ||
          scenario.app->service_count() != 0 || !class_specs.empty()) {
        fail(line_number,
             "'topology synth' must precede all cluster/service/class "
             "directives");
      }
      std::string spec;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        if (!spec.empty()) spec += ' ';
        spec += tokens[i];
      }
      Scenario synth;
      try {
        synth = make_synth_scenario(parse_topogen_spec(spec));
      } catch (const std::invalid_argument& e) {
        fail(line_number, e.what());
      }
      const std::string keep_name = scenario.name;
      scenario.app = std::move(synth.app);
      scenario.topology = std::move(synth.topology);
      scenario.deployment = std::move(synth.deployment);
      scenario.demand = std::move(synth.demand);
      scenario.name = keep_name.empty() ? synth.name : keep_name;
      // Later demand/overload directives resolve generated class names.
      for (ClassId k : scenario.app->all_classes()) {
        classes[scenario.app->traffic_class(k).name].id = k;
      }
      synthesized = true;
    } else if (directive == "cluster") {
      reject_after_synth();
      exact(2, "cluster <name>");
      if (scenario.topology->find_cluster(tokens[1]).valid()) {
        fail(line_number, "duplicate cluster '" + tokens[1] + "'");
      }
      scenario.topology->add_cluster(tokens[1]);
    } else if (directive == "rtt") {
      exact(4, "rtt <a> <b> <duration>");
      scenario.topology->set_rtt(find_cluster(tokens[1]), find_cluster(tokens[2]),
                                 parse_duration(tokens[3], line_number));
    } else if (directive == "one_way") {
      exact(4, "one_way <from> <to> <duration>");
      scenario.topology->set_one_way_latency(
          find_cluster(tokens[1]), find_cluster(tokens[2]),
          parse_duration(tokens[3], line_number));
    } else if (directive == "egress_price") {
      reject_after_synth();
      exact(2, "egress_price <dollars-per-GB>");
      default_egress = parse_number(tokens[1], line_number);
      if (default_egress < 0.0) {
        fail(line_number, "egress_price must be >= 0");
      }
    } else if (directive == "jitter") {
      exact(2, "jitter <fraction>");
      try {
        scenario.topology->set_jitter_fraction(
            parse_number(tokens[1], line_number));
      } catch (const std::invalid_argument& e) {
        fail(line_number, e.what());
      }
    } else if (directive == "service") {
      reject_after_synth();
      exact(2, "service <name>");
      scenario.app->add_service(tokens[1]);
    } else if (directive == "class") {
      reject_after_synth();
      need(2, "class <name> [<method> <path>]");
      if (class_specs.count(tokens[1]) != 0) {
        fail(line_number, "duplicate class '" + tokens[1] + "'");
      }
      TrafficClassSpec spec;
      spec.name = tokens[1];
      if (tokens.size() >= 3) spec.attributes.method = tokens[2];
      if (tokens.size() >= 4) spec.attributes.path = tokens[3];
      class_specs[tokens[1]] = std::move(spec);
      class_order.push_back(tokens[1]);
    } else if (directive == "call") {
      reject_after_synth();
      need(4, "call <class> <parent|root> <service> [key=value...]");
      auto spec_it = class_specs.find(tokens[1]);
      if (spec_it == class_specs.end()) {
        fail(line_number, "unknown class '" + tokens[1] + "'");
      }
      TrafficClassSpec& spec = spec_it->second;
      ClassBuild& build = classes[tokens[1]];
      const ServiceId service = find_service(tokens[3]);

      double compute = 0.0;
      std::uint64_t req = 512, resp = 512;
      double mult = 1.0;
      std::string label = tokens[3];
      InvocationMode mode = InvocationMode::kSequential;
      const Parser parse_mode = [&](const std::string& value) {
        if (value == "seq") {
          mode = InvocationMode::kSequential;
        } else if (value == "par") {
          mode = InvocationMode::kParallel;
        } else {
          fail(line_number, "mode must be seq or par");
        }
      };
      attrs(4, "call",
            {{"compute", &compute, kDuration},
             {"req", &req, kBytes},
             {"resp", &resp, kBytes},
             {"mult", &mult, kNumber, gt(0)},
             {"label", &label, kText},
             {"mode", parse_mode, kCustom}});

      std::size_t node;
      if (tokens[2] == "root") {
        if (!spec.graph.empty()) {
          fail(line_number, "class '" + tokens[1] + "' already has a root call");
        }
        node = spec.graph.set_root(service, compute, req, resp);
      } else {
        const auto parent_it = build.labels.find(tokens[2]);
        if (parent_it == build.labels.end()) {
          fail(line_number, "unknown parent call '" + tokens[2] + "'");
        }
        node = spec.graph.add_call(parent_it->second, service, compute, req,
                                   resp, mult);
      }
      spec.graph.set_invocation_mode(node, mode);
      if (build.labels.count(label) != 0) {
        fail(line_number,
             "duplicate call label '" + label + "' (use label=<name>)");
      }
      build.labels[label] = node;
    } else if (directive == "deploy" || directive == "undeploy") {
      const bool undeploy = directive == "undeploy";
      need(3, "deploy <service|*> <cluster|*> [servers=N capacity=RPS]");
      DeployDirective d;
      d.line = line_number;
      d.service = tokens[1];
      d.cluster = tokens[2];
      d.undeploy = undeploy;
      attrs(3, "deploy",
            {{"servers", &d.servers, kCount, ge(1)},
             {"capacity", &d.capacity}});
      if (!undeploy && d.capacity <= 0.0) {
        fail(line_number, "deploy requires capacity=<RPS>");
      }
      deploys.push_back(std::move(d));
    } else if (directive == "demand") {
      need(4, "demand <class> <cluster> [@t] <rps>");
      DemandDirective d;
      d.line = line_number;
      if (tokens[1] == "diurnal") {
        const char* usage =
            "demand diurnal <class> <cluster> base=<rps> amp=<rps> "
            "period=<dur> until=<t> [phase=<dur>] [start=<t>] [step=<dur>]";
        need(5, usage);
        d.kind = "diurnal";
        d.cls = tokens[2];
        d.cluster = tokens[3];
        DiurnalSpec& g = d.diurnal;
        attrs(4, "demand diurnal",
              {{"base", &g.base, kNumber, {}, true},
               {"amp", &g.amplitude, kNumber, {}, true},
               {"period", &g.period, kDuration, {}, true},
               {"until", &g.end, kDuration, {}, true},
               {"phase", &g.phase, kDuration},
               {"start", &g.start, kDuration},
               {"step", &g.step, kDuration}},
              std::string("usage: ") + usage);
      } else if (tokens[1] == "ramp") {
        const char* usage =
            "demand ramp <class> <cluster> @<start> <duration> from=<rps> "
            "to=<rps> [step=<dur>]";
        need(8, usage);
        d.kind = "ramp";
        d.cls = tokens[2];
        d.cluster = tokens[3];
        d.ramp.start = parse_start(tokens[4], line_number);
        d.ramp.duration = parse_duration(tokens[5], line_number);
        attrs(6, "demand ramp",
              {{"from", &d.ramp.from_rps, kNumber, {}, true},
               {"to", &d.ramp.to_rps, kNumber, {}, true},
               {"step", &d.ramp.step, kDuration}},
              std::string("usage: ") + usage);
      } else if (tokens[1] == "pulse") {
        const char* usage =
            "demand pulse <class> <cluster> @<start> <width> base=<rps> "
            "peak=<rps> [decay=<dur>] [step=<dur>]";
        need(8, usage);
        d.kind = "pulse";
        d.cls = tokens[2];
        d.cluster = tokens[3];
        d.pulse.start = parse_start(tokens[4], line_number);
        d.pulse.width = parse_duration(tokens[5], line_number);
        attrs(6, "demand pulse",
              {{"base", &d.pulse.base, kNumber, {}, true},
               {"peak", &d.pulse.peak, kNumber, {}, true},
               {"decay", &d.pulse.decay, kDuration},
               {"step", &d.pulse.step, kDuration}},
              std::string("usage: ") + usage);
      } else {
        d.cls = tokens[1];
        d.cluster = tokens[2];
        std::size_t rate_index = 3;
        if (tokens[3][0] == '@') {
          need(5, "demand <class> <cluster> @<t> <rps>");
          d.start_time = parse_start(tokens[3], line_number);
          rate_index = 4;
        }
        d.rps = parse_number(tokens[rate_index], line_number);
        if (d.rps < 0.0) fail(line_number, "demand rate must be >= 0");
      }
      demands.push_back(std::move(d));
    } else if (directive == "forecast") {
      need(2,
           "forecast <none|last|ewma|linear|holtwinters|oracle> "
           "[key=value...]");
      ForecastOptions& f = scenario.forecast;
      if (!forecast_kind_from_string(tokens[1], &f.kind)) {
        fail(line_number,
             "unknown forecast kind '" + tokens[1] +
                 "' (expected none, last, ewma, linear, holtwinters, oracle)");
      }
      attrs(2, "forecast",
            {{"alpha", &f.ewma_alpha, kNumber, oc(0, 1)},
             {"window", &f.window, kCount, ge(2)},
             {"season", &f.season, kCount, ge(2)},
             {"hw_alpha", &f.hw_alpha, kNumber, oc(0, 1)},
             {"hw_beta", &f.hw_beta, kNumber, cc(0, 1)},
             {"hw_gamma", &f.hw_gamma, kNumber, cc(0, 1)},
             {"backtest", &f.backtest_window, kCount, ge(1)},
             {"min_history", &f.min_history, kCount, ge(0)},
             {"smape_scale", &f.smape_scale, kNumber, gt(0)},
             {"max_confidence", &f.max_confidence, kNumber, cc(0, 1)}});
    } else if (directive == "fault" && tokens.size() >= 2 &&
               tokens[1] == "campaign") {
      // Seeded chaos campaign: expands to a concrete fault/drain sequence at
      // finalize (a pure function of seed + world sizes; docs/resilience.md).
      need(3,
           "fault campaign seed=<n> events=<k> [start=<t>] [spacing=<dur>] "
           "[mean_duration=<dur>] [kinds=outage,gray,partition,drain]");
      CampaignDirective cd;
      cd.line = line_number;
      CampaignSpec& c = cd.spec;
      const Parser parse_kinds = [&](const std::string& value) {
        c.kinds = CampaignKinds{false, false, false, false};
        std::string rest = value;
        while (!rest.empty()) {
          const std::size_t comma = rest.find(',');
          const std::string kind = rest.substr(0, comma);
          rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
          if (kind == "outage") {
            c.kinds.outage = true;
          } else if (kind == "gray") {
            c.kinds.gray = true;
          } else if (kind == "partition") {
            c.kinds.partition = true;
          } else if (kind == "drain") {
            c.kinds.drain = true;
          } else {
            fail(line_number,
                 "unknown campaign kind '" + kind +
                     "' (expected outage, gray, partition, drain)");
          }
        }
      };
      attrs(2, "campaign",
            {{"seed", &c.seed, kCount, ge(0)},
             {"events", &c.events, kCount, ge(1), true},
             {"start", &c.start, kDuration},
             {"spacing", &c.spacing, kDuration, gt(0)},
             {"mean_duration", &c.mean_duration, kDuration, gt(0)},
             {"kinds", parse_kinds, kCustom}},
            "fault campaign requires events=<k> (>= 1)");
      campaigns.push_back(std::move(cd));
    } else if (directive == "fault") {
      need(2, "fault <outage|blackout|corrupt|slowdown|link|solver> ...");
      FaultDirective f;
      f.line = line_number;
      f.kind = tokens[1];
      std::size_t i = 0;  // index of @<start>
      if (f.kind == "outage" || f.kind == "blackout") {
        exact(5, "fault <outage|blackout> <cluster> @<start> <duration>");
        f.a = tokens[2];
        i = 3;
      } else if (f.kind == "corrupt") {
        need(5, "fault corrupt <cluster> @<start> <duration> [factor=<x>]");
        f.a = tokens[2];
        i = 3;
      } else if (f.kind == "solver") {
        exact(4, "fault solver @<start> <duration>");
        i = 2;
      } else if (f.kind == "slowdown") {
        need(6,
             "fault slowdown <service> <cluster|*> @<start> <duration> "
             "factor=<x>");
        f.a = tokens[2];
        f.b = tokens[3];
        i = 4;
      } else if (f.kind == "link") {
        need(6,
             "fault link <from> <to> @<start> <duration> "
             "[factor=<x>] [extra=<duration>] [partition]");
        f.a = tokens[2];
        f.b = tokens[3];
        i = 4;
      } else {
        fail(line_number,
             "unknown fault kind '" + f.kind +
                 "' (expected outage, blackout, corrupt, slowdown, link, "
                 "solver, campaign)");
      }
      f.start = parse_start(tokens[i], line_number);
      f.duration = parse_duration(tokens[i + 1], line_number);
      // A link fault also takes the bare token `partition`.
      std::vector<std::string> rest;
      for (i += 2; i < tokens.size(); ++i) {
        if (f.kind == "link" && tokens[i] == "partition") {
          f.partition = true;
        } else {
          rest.push_back(tokens[i]);
        }
      }
      const Attr factor{"factor", &f.factor, kNumber, gt(0),
                        f.kind == "slowdown"};
      std::vector<Attr> table = {factor};
      if (f.kind == "corrupt") {
        // A corruption spike must amplify.
        const Parser parse_spike = [&](const std::string& value) {
          set_attr(factor, value, line_number);
          if (f.factor <= 1.0) {
            fail(line_number, "corrupt factor must be > 1 (spike multiplier)");
          }
        };
        table[0] = {"factor", parse_spike, kCustom};
      }
      if (f.kind == "link") table.push_back({"extra", &f.extra, kDuration});
      const auto seen = parse_attrs(rest, line_number, "fault " + f.kind, table,
                                    "fault slowdown requires factor=<x>");
      f.has_factor = seen.count("factor") != 0;
      if (f.kind == "link" && !f.partition && seen.empty()) {
        fail(line_number,
             "fault link needs an effect: factor=, extra=, or partition");
      }
      faults.push_back(std::move(f));
    } else if (directive == "overload") {
      need(2, "overload <queue|deadline|priority|breaker> ...");
      const std::string& sub = tokens[1];
      if (sub == "queue") {
        need(3,
             "overload queue limit=<n> [codel_target=<dur>] "
             "[codel_interval=<dur>] [priority_shedding=on|off]");
        QueuePolicy& q = scenario.overload.queue;
        attrs(2, "overload queue",
              {{"limit", &q.max_queue, kCount, ge(0)},
               {"codel_target", &q.codel_target, kDuration, gt(0)},
               {"codel_interval", &q.codel_interval, kDuration, gt(0)},
               {"priority_shedding", &q.priority_shedding, kOnOff}});
      } else if (sub == "deadline") {
        // Two forms: a default for all classes (with optional propagate=),
        // or a per-class override ("overload deadline <class> <duration>").
        need(3, "overload deadline <duration>|<class> ...");
        if (tokens.size() >= 4 && tokens[3].find('=') == std::string::npos) {
          exact(4, "overload deadline <class> <duration>");
          OverloadClassDirective od;
          od.line = line_number;
          od.kind = "deadline";
          od.cls = tokens[2];
          od.deadline = parse_duration(tokens[3], line_number);
          if (od.deadline <= 0.0) fail(line_number, "deadline must be > 0");
          overloads.push_back(std::move(od));
        } else {
          DeadlinePolicy& dl = scenario.overload.deadline;
          dl.enabled = true;
          dl.default_deadline = parse_duration(tokens[2], line_number);
          if (dl.default_deadline <= 0.0) {
            fail(line_number, "deadline must be > 0");
          }
          attrs(3, "overload deadline",
                {{"propagate", &dl.propagate, kOnOff}});
        }
      } else if (sub == "priority") {
        exact(4, "overload priority <class> <level>");
        OverloadClassDirective od;
        od.line = line_number;
        od.kind = "priority";
        od.cls = tokens[2];
        const double level = parse_number(tokens[3], line_number);
        if (level != std::floor(level)) {
          fail(line_number, "priority level must be an integer");
        }
        od.priority = static_cast<int>(level);
        overloads.push_back(std::move(od));
      } else if (sub == "breaker") {
        BreakerPolicy& br = scenario.overload.breaker;
        br.enabled = true;
        attrs(2, "overload breaker",
              {{"window", &br.window, kDuration, gt(0)},
               {"ratio", &br.failure_ratio, kNumber, oc(0, 1)},
               {"min_volume", &br.min_volume, kCount, ge(1)},
               {"eject", &br.ejection_base, kDuration, gt(0)},
               {"max_eject", &br.max_ejection, kDuration, gt(0)},
               {"probes", &br.half_open_probes, kCount, ge(1)}});
      } else {
        fail(line_number, "unknown overload kind '" + sub +
                              "' (expected queue, deadline, priority, breaker)");
      }
    } else if (directive == "guard") {
      need(2, "guard <admission|solver|rollout> [key=value...]");
      const std::string& sub = tokens[1];
      if (sub == "admission") {
        AdmissionOptions& g = scenario.guard.admission;
        g.enabled = true;
        attrs(2, "guard admission",
              {{"max_rps", &g.max_rps, kNumber, gt(0)},
               {"max_latency", &g.max_latency, kDuration, gt(0)},
               {"max_utilization", &g.max_utilization, kNumber, gt(0)},
               {"window", &g.mad_window, kCount, cc(2, 256)},
               {"min_history", &g.min_history, kCount, ge(1)},
               {"threshold", &g.mad_threshold, kNumber, gt(0)},
               {"noise_floor", &g.mad_noise_floor, kNumber, ge(0)},
               {"trust_decay", &g.trust_decay, kNumber, oc(0, 1)},
               {"trust_recovery", &g.trust_recovery, kNumber, oc(0, 1)},
               {"min_trust", &g.min_trust, kNumber, oc(0, 1)}});
      } else if (sub == "solver") {
        SolverGuardOptions& g = scenario.guard.solver;
        g.enabled = true;
        attrs(2, "guard solver",
              {{"budget", &g.wall_budget, kDuration},
               {"local_bias", &g.split_local_bias, kNumber, ge(1)}});
      } else if (sub == "rollout") {
        RolloutOptions& g = scenario.guard.rollout;
        g.enabled = true;
        attrs(2, "guard rollout",
              {{"max_delta", &g.max_weight_delta, kNumber, oc(0, 1)},
               {"canary", &g.canary_periods, kCount, ge(1)},
               {"goodput_drop", &g.goodput_drop, kNumber, oo(0, 1)},
               {"p99_rise", &g.p99_rise, kNumber, gt(0)},
               {"min_samples", &g.min_samples, kCount, ge(1)},
               {"flap_threshold", &g.flap_threshold, kNumber, gt(0)},
               {"flap_window", &g.flap_window, kCount, ge(2)},
               {"freeze", &g.freeze_periods, kCount, ge(1)},
               {"damping_floor", &g.damping_floor, kNumber, oc(0, 1)}});
      } else {
        fail(line_number, "unknown guard kind '" + sub +
                              "' (expected admission, solver, rollout)");
      }
    } else if (directive == "admission") {
      // Front-door token-bucket admission (docs/overload.md). Two forms:
      //   admission rate=<rps> [burst=<dur>] [slo=<dur>] [key=value...]
      //   admission class <name> [rate=<rps>] [slo=<dur>]
      need(2, "admission rate=<rps> [key=value...] | admission class <name> ...");
      if (tokens[1] == "class") {
        need(4, "admission class <name> [rate=<rps>] [slo=<dur>]");
        AdmissionClassDirective ad;
        ad.line = line_number;
        ad.cls = tokens[2];
        attrs(3, "admission class",
              {{"rate", &ad.rate, kNumber, gt(0)},
               {"slo", &ad.slo, kDuration, gt(0)}});
        admissions.push_back(std::move(ad));
      } else {
        AdmissionPolicy& a = scenario.admission;
        a.enabled = true;
        attrs(1, "admission",
              {{"rate", &a.default_rate, kNumber, gt(0)},
               {"burst", &a.burst, kDuration, gt(0)},
               {"slo", &a.default_slo, kDuration, gt(0)},
               {"attainment", &a.target_attainment, kNumber, oc(0, 1)},
               {"gain", &a.gain, kNumber, oo(0, 1)},
               {"headroom", &a.headroom, kNumber, ge(1)},
               {"fair_floor", &a.fair_floor, kNumber, cc(0, 1)},
               {"evidence", &a.evidence, kCount, ge(1)},
               {"min_rate", &a.min_rate, kNumber, gt(0)},
               {"max_rate", &a.max_rate, kNumber, gt(0)},
               {"adapt", &a.adapt, kOnOff}});
        if (a.max_rate < a.min_rate) {
          fail(line_number, "admission needs min_rate <= max_rate");
        }
      }
    } else if (directive == "contingency") {
      // N-1 headroom planning (docs/resilience.md). Attributes are all
      // optional; the bare directive arms the defaults.
      ContingencyOptions& co = scenario.contingency;
      co.enabled = true;
      attrs(1, "contingency",
            {{"cap", &co.max_post_failure_utilization, kNumber, oc(0, 1)},
             {"pad_step", &co.pad_step, kNumber, oo(0, 1)},
             {"min_cap", &co.min_utilization, kNumber, oc(0, 1)},
             {"hysteresis", &co.relax_hysteresis, kNumber, ge(0)}});
      try {
        co.validate();
      } catch (const std::invalid_argument& e) {
        fail(line_number, e.what());
      }
    } else if (directive == "drain") {
      // Coordinated drain (docs/resilience.md); cluster may be a forward
      // reference, resolved at finalize.
      need(4, "drain <cluster> @<start> over=<dur> [step=<frac>] [sag=<frac>]");
      DrainDirective dd;
      dd.line = line_number;
      dd.cluster = tokens[1];
      dd.spec.start = parse_start(tokens[2], line_number);
      attrs(3, "drain",
            {{"over", &dd.spec.over, kDuration, gt(0), true},
             {"step", &dd.spec.step, kNumber, oc(0, 1)},
             {"sag", &dd.spec.sag_threshold, kNumber, oo(0, 1)}},
            "drain requires over=<duration>");
      drains.push_back(std::move(dd));
    } else if (directive == "price") {
      // Per-cluster server pricing, the capacity half of the joint cost
      // objective (docs/autoscaling.md). Like rtt, clusters must already
      // exist; `*` prices every cluster uniformly.
      exact(3, "price <cluster|*> <dollars-per-server-hour>");
      const double rate = parse_number(tokens[2], line_number);
      if (rate < 0.0) fail(line_number, "price must be >= 0");
      if (tokens[1] == "*") {
        scenario.topology->set_uniform_server_price(rate);
      } else {
        scenario.topology->set_server_price(find_cluster(tokens[1]), rate);
      }
    } else if (directive == "bilevel") {
      // Bi-level autoscaling x TE co-design (docs/autoscaling.md).
      // Attributes are all optional; the bare directive arms the defaults.
      BilevelOptions& bo = scenario.bilevel;
      bo.enabled = true;
      attrs(1, "bilevel",
            {{"horizon", &bo.horizon, kDuration, gt(0)},
             {"ttl", &bo.plan_ttl, kDuration, gt(0)},
             {"weight", &bo.server_cost_weight, kNumber, ge(0)},
             {"target", &bo.price_target, kNumber, oo(0, 1)}});
    } else {
      fail(line_number, "unknown directive '" + directive + "'");
    }
  }

  // Finalize: classes, egress pricing, deployment, demand. A synthesized
  // world arrives with all of these already built; only overrides (deploy,
  // demand, faults, overload) replay on top.
  if (scenario.topology->cluster_count() == 0) {
    throw std::runtime_error("scenario defines no clusters");
  }
  if (default_egress >= 0.0) {
    scenario.topology->set_uniform_egress_price(default_egress);
  }
  if (!synthesized) {
    for (const auto& name : class_order) {
      auto& spec = class_specs[name];
      if (spec.graph.empty()) {
        throw std::runtime_error("class '" + name + "' has no root call");
      }
      classes[name].id = scenario.app->add_class(std::move(spec));
    }
    scenario.app->validate();
  }

  // Two explicit directives naming the same (service, cluster) target:
  // the later one would silently overwrite the earlier (Deployment
  // re-deploy semantics), which is always a spec mistake. Wildcards are
  // exempt — `deploy * *` followed by a specific override is the
  // documented idiom.
  {
    std::map<std::pair<std::string, std::string>, std::size_t> explicit_targets;
    for (const auto& d : deploys) {
      if (d.service == "*" || d.cluster == "*") continue;
      const auto [it, inserted] =
          explicit_targets.emplace(std::make_pair(d.service, d.cluster), d.line);
      if (!inserted) {
        fail(d.line,
             strfmt("duplicate %s target '%s %s' (first declared at line %zu)",
                    d.undeploy ? "undeploy" : "deploy", d.service.c_str(),
                    d.cluster.c_str(), it->second));
      }
    }
  }

  if (!synthesized) {
    scenario.deployment = std::make_unique<Deployment>(
        *scenario.app, scenario.topology->cluster_count());
  }
  for (const auto& d : deploys) {
    std::vector<ServiceId> services;
    if (d.service == "*") {
      services = scenario.app->all_services();
    } else {
      const ServiceId id = scenario.app->find_service(d.service);
      if (!id.valid()) fail(d.line, "unknown service '" + d.service + "'");
      services.push_back(id);
    }
    std::vector<ClusterId> clusters;
    if (d.cluster == "*") {
      clusters = scenario.topology->all_clusters();
    } else {
      const ClusterId id = scenario.topology->find_cluster(d.cluster);
      if (!id.valid()) fail(d.line, "unknown cluster '" + d.cluster + "'");
      clusters.push_back(id);
    }
    for (ServiceId s : services) {
      for (ClusterId c : clusters) {
        if (d.undeploy) {
          scenario.deployment->undeploy(s, c);
        } else {
          scenario.deployment->deploy(s, c, d.servers, d.capacity);
        }
      }
    }
  }
  scenario.deployment->validate();

  for (const auto& d : demands) {
    const auto it = classes.find(d.cls);
    if (it == classes.end()) fail(d.line, "unknown class '" + d.cls + "'");
    const ClusterId cluster = scenario.topology->find_cluster(d.cluster);
    if (!cluster.valid()) fail(d.line, "unknown cluster '" + d.cluster + "'");
    try {
      if (d.kind == "diurnal") {
        add_diurnal(scenario.demand, it->second.id, cluster, d.diurnal);
      } else if (d.kind == "ramp") {
        add_ramp(scenario.demand, it->second.id, cluster, d.ramp);
      } else if (d.kind == "pulse") {
        add_pulse(scenario.demand, it->second.id, cluster, d.pulse);
      } else {
        scenario.demand.add_step(it->second.id, cluster, d.start_time, d.rps);
      }
    } catch (const std::invalid_argument& e) {
      fail(d.line, e.what());
    }
  }

  for (const auto& f : faults) {
    auto resolve_cluster = [&](const std::string& name) {
      const ClusterId id = scenario.topology->find_cluster(name);
      if (!id.valid()) fail(f.line, "unknown cluster '" + name + "'");
      return id;
    };
    try {
      if (f.kind == "outage") {
        scenario.faults.cluster_outage(resolve_cluster(f.a), f.start,
                                       f.duration);
      } else if (f.kind == "blackout") {
        scenario.faults.telemetry_blackout(resolve_cluster(f.a), f.start,
                                           f.duration);
      } else if (f.kind == "corrupt") {
        if (f.has_factor) {
          scenario.faults.telemetry_corruption(resolve_cluster(f.a), f.start,
                                               f.duration, f.factor);
        } else {
          scenario.faults.telemetry_corruption(resolve_cluster(f.a), f.start,
                                               f.duration);
        }
      } else if (f.kind == "solver") {
        scenario.faults.solver_outage(f.start, f.duration);
      } else if (f.kind == "slowdown") {
        const ServiceId service = scenario.app->find_service(f.a);
        if (!service.valid()) fail(f.line, "unknown service '" + f.a + "'");
        const ClusterId cluster =
            f.b == "*" ? ClusterId{} : resolve_cluster(f.b);
        scenario.faults.service_slowdown(service, cluster, f.start, f.duration,
                                         f.factor);
      } else {  // link
        const ClusterId from = resolve_cluster(f.a);
        const ClusterId to = resolve_cluster(f.b);
        FaultSpec spec;
        spec.kind = FaultKind::kLinkDegradation;
        spec.start = f.start;
        spec.duration = f.duration;
        spec.cluster = from;
        spec.to = to;
        spec.factor = f.factor;
        spec.extra_latency = f.extra;
        spec.partition = f.partition;
        scenario.faults.add(spec);
      }
    } catch (const std::invalid_argument& e) {
      fail(f.line, e.what());
    }
  }

  // Per-class overload settings (forward class references resolved here).
  for (const auto& od : overloads) {
    const auto it = classes.find(od.cls);
    if (it == classes.end()) fail(od.line, "unknown class '" + od.cls + "'");
    const std::size_t k = it->second.id.index();
    if (od.kind == "deadline") {
      auto& per_class = scenario.overload.deadline.per_class;
      if (per_class.size() <= k) per_class.resize(k + 1, 0.0);
      per_class[k] = od.deadline;
      scenario.overload.deadline.enabled = true;
    } else {
      auto& priority = scenario.overload.queue.class_priority;
      if (priority.size() <= k) priority.resize(k + 1, 0);
      priority[k] = od.priority;
    }
  }

  // Per-class admission overrides (forward class references resolved
  // here). A per-class directive arms the policy like the top-level form.
  for (const auto& ad : admissions) {
    const auto it = classes.find(ad.cls);
    if (it == classes.end()) fail(ad.line, "unknown class '" + ad.cls + "'");
    const std::size_t k = it->second.id.index();
    AdmissionPolicy& a = scenario.admission;
    if (ad.rate > 0.0) {
      if (a.class_rate.size() <= k) a.class_rate.resize(k + 1, 0.0);
      a.class_rate[k] = ad.rate;
    }
    if (ad.slo > 0.0) {
      if (a.class_slo.size() <= k) a.class_slo.resize(k + 1, 0.0);
      a.class_slo[k] = ad.slo;
    }
    a.enabled = true;
  }

  // Drains (forward cluster references resolved here).
  for (const auto& dd : drains) {
    const ClusterId id = scenario.topology->find_cluster(dd.cluster);
    if (!id.valid()) fail(dd.line, "unknown cluster '" + dd.cluster + "'");
    DrainSpec spec = dd.spec;
    spec.cluster = id;
    scenario.drains.push_back(spec);
  }

  // Chaos campaigns expand against the finished world: the fault plan and
  // drain list they append to are the same ones hand-written directives
  // feed, so a campaign scenario is just a scenario with a longer plan.
  for (const auto& cd : campaigns) {
    try {
      expand_campaign(cd.spec, scenario.topology->cluster_count(),
                      scenario.app->service_count(), &scenario.faults,
                      &scenario.drains);
    } catch (const std::invalid_argument& e) {
      fail(cd.line, e.what());
    }
  }
  return scenario;
}

Scenario load_scenario_from_string(const std::string& text) {
  std::istringstream stream(text);
  return load_scenario(stream);
}

Scenario load_scenario_from_file(const std::string& path) {
  std::ifstream stream(path);
  if (!stream) {
    throw std::runtime_error("cannot open scenario file: " + path);
  }
  return load_scenario(stream);
}

}  // namespace slate
