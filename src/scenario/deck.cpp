#include "scenario/deck.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::scenario {

std::string Deck::get(const std::string& key,
                      const std::string& fallback) const {
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->key == key) return it->value;
  }
  return fallback;
}

bool Deck::has(const std::string& key) const {
  for (const auto& e : entries) {
    if (e.key == key) return true;
  }
  return false;
}

void Deck::set(const std::string& key, const std::string& value) {
  entries.push_back({key, value, 0});
}

Deck parse_deck(std::istream& is, const std::string& source) {
  Deck deck;
  deck.source = source;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    // Strip comments: '#' opens one only at line start or after
    // whitespace, so a '#' embedded in a value ("summary = out#1.json")
    // survives — matching how the same token behaves as a CLI override.
    for (std::size_t i = 0; i < line.size(); ++i) {
      if (line[i] == '#' &&
          (i == 0 || line[i - 1] == ' ' || line[i - 1] == '\t')) {
        line.erase(i);
        break;
      }
    }
    const std::string stripped = trim(line);
    if (stripped.empty()) continue;
    const auto eq = stripped.find('=');
    WSMD_REQUIRE(eq != std::string::npos,
                 source << ":" << lineno << ": expected 'key = value', got '"
                        << stripped << "'");
    DeckEntry entry;
    entry.key = trim(stripped.substr(0, eq));
    entry.value = trim(stripped.substr(eq + 1));
    entry.line = lineno;
    WSMD_REQUIRE(!entry.key.empty(),
                 source << ":" << lineno << ": empty key");
    deck.entries.push_back(std::move(entry));
  }
  return deck;
}

Deck parse_deck_string(const std::string& text, const std::string& source) {
  std::istringstream is(text);
  return parse_deck(is, source);
}

Deck parse_deck_file(const std::string& path) {
  std::ifstream is(path);
  WSMD_REQUIRE(is.good(), "cannot open deck '" << path << "'");
  return parse_deck(is, path);
}

DeckEntry parse_override(const std::string& token) {
  const auto eq = token.find('=');
  WSMD_REQUIRE(eq != std::string::npos,
               "override '" << token << "' is not key=value");
  DeckEntry entry;
  entry.key = trim(token.substr(0, eq));
  entry.value = trim(token.substr(eq + 1));
  WSMD_REQUIRE(!entry.key.empty(), "override '" << token << "' has no key");
  return entry;
}

Deck deck_from_entries(
    const std::vector<std::pair<std::string, std::string>>& entries,
    const std::string& source) {
  Deck deck;
  deck.source = source;
  deck.entries.reserve(entries.size());
  for (const auto& [key, value] : entries) {
    // Checkpoints of ranks: runs written while halos had two carriers embed
    // `dist.transport = shm|socket`. Both carriers gave bitwise-identical
    // trajectories, so dropping the pin changes nothing on resume.
    if (key == "dist.transport") continue;
    // Every checkpoint written while forces had two evaluation paths pins
    // `potential`. The profile tables are the only path left, so a
    // `tabulated` pin changes nothing; an `analytic` one cannot be honored.
    if (key == "potential") {
      WSMD_REQUIRE(value == "tabulated",
                   source << ": checkpoint pins 'potential = " << value
                          << "', the retired analytic evaluation path; "
                             "continuing it on the profile tables would "
                             "silently change the trajectory — rerun from "
                             "the deck instead");
      continue;
    }
    deck.entries.push_back(
        {key, value, static_cast<int>(deck.entries.size()) + 1});
  }
  return deck;
}

}  // namespace wsmd::scenario
