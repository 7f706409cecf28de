#pragma once

/// \file deck.hpp
/// Scenario deck parsing: the small declarative `key = value` format the
/// `wsmd` driver reads.
///
/// A deck is a text file of `key = value` lines; `#` starts a comment
/// (full-line or trailing), blank lines are skipped. Keys may repeat — the
/// thermostat schedule is built from the *order* of schedule keys
/// (`thermalize`, `equilibrate`, `ramp`, `quench`, `run`), so the parser
/// preserves entry order verbatim instead of collapsing into a map. CLI
/// overrides use the same `key=value` syntax and append to the deck.
///
///   # paper Cu slab, scaled for CI
///   name      = cu_slab
///   element   = Cu
///   geometry  = slab
///   scale     = 32
///   thermalize  = 290
///   equilibrate = 290 20
///   run         = 30
///   backend   = reference
///   thermo    = cu_slab.thermo.csv

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace wsmd::scenario {

/// One `key = value` line, in file order.
struct DeckEntry {
  std::string key;
  std::string value;
  int line = 0;  ///< 1-based source line (0 for CLI overrides)
};

struct Deck {
  std::string source;  ///< file path or "<cli>" for diagnostics
  std::vector<DeckEntry> entries;

  /// Last value for `key`, or `fallback` when absent (last wins so CLI
  /// overrides appended after the file take effect).
  std::string get(const std::string& key, const std::string& fallback = "") const;
  bool has(const std::string& key) const;

  /// Append an override (`key=value` or explicit pair).
  void set(const std::string& key, const std::string& value);
};

/// Parse deck text. Malformed lines (no '=', empty key) throw wsmd::Error
/// with the line number.
Deck parse_deck(std::istream& is, const std::string& source = "<stream>");
Deck parse_deck_string(const std::string& text,
                       const std::string& source = "<string>");
Deck parse_deck_file(const std::string& path);

/// Split a `key=value` token (as given on the CLI); throws when '=' is
/// missing or the key is empty.
DeckEntry parse_override(const std::string& token);

/// Rebuild a Deck from raw (key, value) pairs — a checkpoint's embedded
/// deck — assigning file-style line numbers so overrides appended later
/// (line 0) get the normal CLI-against-a-file semantics. Single authority
/// for the reconstruction: `wsmd resume` and the runner's resume
/// validation must agree on it. Drops the retired keys older checkpoints
/// embed: `dist.transport` and `potential = tabulated`. Throws on
/// `potential = analytic` — that trajectory's evaluation path is gone.
Deck deck_from_entries(
    const std::vector<std::pair<std::string, std::string>>& entries,
    const std::string& source);

}  // namespace wsmd::scenario
