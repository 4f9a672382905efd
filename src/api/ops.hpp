// The op table: every request kind, defined once.
//
// One row per op holds its wire name, the from-JSON -> Engine -> to-JSON
// path that batch and serve dispatch, and what the prcost CLI needs to
// reach the same path: how its argv maps onto request members (the flag
// spec) and how the typed response prints as text. The CLI turns argv
// into a request Json with the flag spec, so a command and a JSONL line
// that carry the same members run the same code.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <string_view>

#include "api/engine.hpp"
#include "util/json.hpp"

namespace prcost::api {

/// How a CLI flag's text becomes a request member.
enum class FlagKind {
  kString,     ///< the text, as a JSON string
  kU64,        ///< parse_u64 of the text
  kDouble,     ///< parse_double of the text
  kBool,       ///< takes no value; present means true
  kFileText,   ///< the text is a path; the member is the file's contents
  kPrmSource,  ///< a PRM source; the first one given wins (see Positionals)
};

struct CliFlag {
  std::string_view flag;  ///< without the leading "--"; "out" is -o
  std::string_view key;   ///< request member it sets
  FlagKind kind = FlagKind::kString;
};

/// Where a command's positional arguments go.
enum class Positionals {
  kNone,
  kPrm,   ///< the first is "prm" unless a kPrmSource flag was given
  kPrms,  ///< all of them form the "prms" array
};

struct Op {
  std::string_view name;
  /// Request Json -> typed request -> Engine call -> response Json.
  Json (*dispatch)(const Engine& engine, const Json& request);
  /// The same request and Engine call, printed as the CLI's text on `out`
  /// (the --stats block last); returns the exit code. Null for ops the
  /// CLI does not offer (ping, metrics).
  int (*render)(const Engine& engine, const Json& request, std::ostream& out);
  Positionals positionals = Positionals::kNone;
  /// argv -> request members. A command whose spec has --device rejects
  /// a command line without it. CLI-only members ("out", "dump_trace")
  /// are read by the renderer; request-from-JSON ignores them.
  std::span<const CliFlag> flags;
};

/// Every op, in the order the unknown-op message lists them.
std::span<const Op> ops();

/// The op called `name`, or null.
const Op* find_op(std::string_view name);

/// Space-separated op names, in table order.
std::string op_names();

}  // namespace prcost::api
