#include "automata/automaton_io.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>

#include "common/strings.h"

namespace fo2dt {

namespace {

// Whitespace-separated token cursor. The grammar has counts before every
// list, so token order alone determines structure; newlines are cosmetic.
// Every error carries the 1-based line/column of the offending token: this
// text format is a network-facing surface (fo2dtd request bodies), so a
// hostile client gets a precise diagnostic instead of a crash.
class TokenReader {
 public:
  TokenReader(const std::string& text, size_t pos) : text_(text), pos_(pos) {}

  size_t pos() const { return pos_; }

  /// ParseError at the current cursor with "(line L, column C)" appended.
  Status ErrorHere(const std::string& what, size_t at) const {
    return Status::ParseError(StringFormat(
        "%s in automaton text (%s)", what.c_str(),
        FormatTextPosition(text_, at).c_str()));
  }

  Result<std::string> Next() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return ErrorHere("text ended early", pos_);
    }
    token_start_ = pos_;
    while (pos_ < text_.size() &&
           !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return text_.substr(token_start_, pos_ - token_start_);
  }

  Status Expect(const char* keyword) {
    FO2DT_ASSIGN_OR_RETURN(std::string token, Next());
    if (token != keyword) {
      return ErrorHere(StringFormat("expected '%s', got '%s'", keyword,
                                    SanitizeToken(token).c_str()),
                       token_start_);
    }
    return Status::OK();
  }

  Result<uint64_t> Number() {
    FO2DT_ASSIGN_OR_RETURN(std::string token, Next());
    uint64_t value = 0;
    for (char c : token) {
      if (c < '0' || c > '9') {
        return ErrorHere(StringFormat("bad number '%s'",
                                      SanitizeToken(token).c_str()),
                         token_start_);
      }
      uint64_t digit = static_cast<uint64_t>(c - '0');
      if (value > (UINT64_MAX - digit) / 10) {
        return ErrorHere(StringFormat("number '%s' overflows",
                                      SanitizeToken(token).c_str()),
                         token_start_);
      }
      value = value * 10 + digit;
    }
    return value;
  }

  Result<uint64_t> NumberBelow(uint64_t bound, const char* what) {
    FO2DT_ASSIGN_OR_RETURN(uint64_t value, Number());
    if (value >= bound) {
      return ErrorHere(StringFormat(
                           "%s %llu out of range (have %llu)", what,
                           static_cast<unsigned long long>(value),
                           static_cast<unsigned long long>(bound)),
                       token_start_);
    }
    return value;
  }

 private:
  /// Hostile tokens can contain arbitrary bytes (non-UTF8, control chars);
  /// clamp length and replace non-printable bytes before echoing them into
  /// an error message.
  static std::string SanitizeToken(const std::string& token) {
    constexpr size_t kMaxEcho = 32;
    std::string out;
    for (size_t i = 0; i < token.size() && i < kMaxEcho; ++i) {
      unsigned char c = static_cast<unsigned char>(token[i]);
      out.push_back(c >= 0x20 && c < 0x7f ? token[i] : '?');
    }
    if (token.size() > kMaxEcho) out += "...";
    return out;
  }

  const std::string& text_;
  size_t pos_;
  size_t token_start_ = 0;
};

/// Appends a space and the decimal digits of \p v to \p out.
void AppendNumber(std::string* out, uint64_t v) {
  char buf[24];
  buf[0] = ' ';
  const auto [end, ec] = std::to_chars(buf + 1, buf + sizeof(buf), v);
  (void)ec;  // 20 digits always fit
  out->append(buf, static_cast<size_t>(end - buf));
}

}  // namespace

std::string TreeAutomatonToText(const TreeAutomaton& automaton) {
  // One reserved string; every number is appended with std::to_chars. The
  // bytes are the canonical form the solve cache and the query log key on.
  std::string out;
  out.reserve(64 + 6 * (automaton.initial().size() +
                        automaton.non_first().size()) +
              12 * automaton.accepting().size() +
              18 * (automaton.horizontal().size() +
                    automaton.vertical().size()));
  out += "automaton";
  AppendNumber(&out, automaton.num_symbols());
  AppendNumber(&out, automaton.num_states());

  out += "\ninitial";
  AppendNumber(&out, automaton.initial().size());
  for (TreeState q : automaton.initial()) AppendNumber(&out, q);

  out += "\nnonfirst";
  AppendNumber(&out, automaton.non_first().size());
  for (TreeState q : automaton.non_first()) AppendNumber(&out, q);

  out += "\naccepting";
  AppendNumber(&out, automaton.accepting().size());
  for (const auto& [q, a] : automaton.accepting()) {
    AppendNumber(&out, q);
    AppendNumber(&out, a);
  }

  // Transitions are stored in insertion order; emit them sorted so textual
  // round-trips of structurally equal automata produce identical bytes — the
  // solve cache and the query log key on the FNV-1a of this text.
  auto append_sorted =
      [&out](const std::vector<std::tuple<TreeState, Symbol, TreeState>>&
                 transitions) {
        std::vector<std::tuple<TreeState, Symbol, TreeState>> ordered =
            transitions;
        std::sort(ordered.begin(), ordered.end());
        AppendNumber(&out, ordered.size());
        for (const auto& [from, a, to] : ordered) {
          AppendNumber(&out, from);
          AppendNumber(&out, a);
          AppendNumber(&out, to);
        }
      };
  out += "\nhorizontal";
  append_sorted(automaton.horizontal());
  out += "\nvertical";
  append_sorted(automaton.vertical());
  out += "\n";
  return out;
}

Result<TreeAutomaton> ParseTreeAutomatonText(const std::string& text,
                                             size_t* pos) {
  TokenReader reader(text, *pos);
  FO2DT_RETURN_NOT_OK(reader.Expect("automaton"));
  FO2DT_ASSIGN_OR_RETURN(uint64_t num_symbols, reader.Number());
  FO2DT_ASSIGN_OR_RETURN(uint64_t num_states, reader.Number());
  // Sanity caps before any allocation. The constructor reserves
  // num_symbols * num_states adjacency slots, so the *product* is the
  // allocation driver: a hostile "automaton 16777216 16777216" header would
  // otherwise request 2^48 slots from a few bytes of input.
  constexpr uint64_t kMaxDim = 1u << 24;
  constexpr uint64_t kMaxCells = 1u << 24;
  if (num_symbols > kMaxDim || num_states > kMaxDim ||
      (num_symbols != 0 && num_states > kMaxCells / num_symbols)) {
    return Status::ParseError(StringFormat(
        "automaton dimensions implausibly large (%llu symbols x %llu states)",
        static_cast<unsigned long long>(num_symbols),
        static_cast<unsigned long long>(num_states)));
  }
  TreeAutomaton automaton(static_cast<size_t>(num_symbols),
                          static_cast<size_t>(num_states));

  FO2DT_RETURN_NOT_OK(reader.Expect("initial"));
  FO2DT_ASSIGN_OR_RETURN(uint64_t k, reader.Number());
  for (uint64_t i = 0; i < k; ++i) {
    FO2DT_ASSIGN_OR_RETURN(uint64_t q,
                           reader.NumberBelow(num_states, "initial state"));
    automaton.SetInitial(static_cast<TreeState>(q));
  }

  FO2DT_RETURN_NOT_OK(reader.Expect("nonfirst"));
  FO2DT_ASSIGN_OR_RETURN(k, reader.Number());
  for (uint64_t i = 0; i < k; ++i) {
    FO2DT_ASSIGN_OR_RETURN(uint64_t q,
                           reader.NumberBelow(num_states, "nonfirst state"));
    automaton.SetNonFirst(static_cast<TreeState>(q));
  }

  FO2DT_RETURN_NOT_OK(reader.Expect("accepting"));
  FO2DT_ASSIGN_OR_RETURN(k, reader.Number());
  for (uint64_t i = 0; i < k; ++i) {
    FO2DT_ASSIGN_OR_RETURN(uint64_t q,
                           reader.NumberBelow(num_states, "accepting state"));
    FO2DT_ASSIGN_OR_RETURN(uint64_t a,
                           reader.NumberBelow(num_symbols, "accepting symbol"));
    automaton.SetAccepting(static_cast<TreeState>(q), static_cast<Symbol>(a));
  }

  FO2DT_RETURN_NOT_OK(reader.Expect("horizontal"));
  FO2DT_ASSIGN_OR_RETURN(k, reader.Number());
  for (uint64_t i = 0; i < k; ++i) {
    FO2DT_ASSIGN_OR_RETURN(uint64_t from,
                           reader.NumberBelow(num_states, "horizontal state"));
    FO2DT_ASSIGN_OR_RETURN(
        uint64_t a, reader.NumberBelow(num_symbols, "horizontal symbol"));
    FO2DT_ASSIGN_OR_RETURN(uint64_t to,
                           reader.NumberBelow(num_states, "horizontal state"));
    automaton.AddHorizontal(static_cast<TreeState>(from),
                            static_cast<Symbol>(a),
                            static_cast<TreeState>(to));
  }

  FO2DT_RETURN_NOT_OK(reader.Expect("vertical"));
  FO2DT_ASSIGN_OR_RETURN(k, reader.Number());
  for (uint64_t i = 0; i < k; ++i) {
    FO2DT_ASSIGN_OR_RETURN(uint64_t from,
                           reader.NumberBelow(num_states, "vertical state"));
    FO2DT_ASSIGN_OR_RETURN(uint64_t a,
                           reader.NumberBelow(num_symbols, "vertical symbol"));
    FO2DT_ASSIGN_OR_RETURN(uint64_t to,
                           reader.NumberBelow(num_states, "vertical state"));
    automaton.AddVertical(static_cast<TreeState>(from), static_cast<Symbol>(a),
                          static_cast<TreeState>(to));
  }

  *pos = reader.pos();
  return automaton;
}

Result<TreeAutomaton> ParseTreeAutomaton(const std::string& text) {
  size_t pos = 0;
  FO2DT_ASSIGN_OR_RETURN(TreeAutomaton automaton,
                         ParseTreeAutomatonText(text, &pos));
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos]))) {
    ++pos;
  }
  if (pos != text.size()) {
    return Status::ParseError(StringFormat(
        "trailing content after automaton text (%s)",
        FormatTextPosition(text, pos).c_str()));
  }
  return automaton;
}

}  // namespace fo2dt
