// Copyright 2026 The LearnRisk Authors

#include "data/noise.h"

#include <algorithm>

#include "common/string_util.h"

namespace learnrisk {
namespace {

const char* const kOnsets[] = {"b",  "c",  "d",  "f",  "g",  "h",  "j",
                               "k",  "l",  "m",  "n",  "p",  "r",  "s",
                               "t",  "v",  "w",  "z",  "br", "cr", "dr",
                               "fr", "gr", "pr", "tr", "st", "sp", "pl",
                               "cl", "sh", "ch", "th"};
const char* const kNuclei[] = {"a",  "e",  "i",  "o",  "u",  "ai",
                               "ea", "ee", "io", "ou", "ar", "er",
                               "or", "an", "en", "in", "on", "al"};
const char* const kCodas[] = {"",  "",  "",  "n",  "r",  "s",  "t",
                              "l", "m", "x",  "nd", "rk", "st", "ck"};

constexpr size_t kNumOnsets = sizeof(kOnsets) / sizeof(kOnsets[0]);
constexpr size_t kNumNuclei = sizeof(kNuclei) / sizeof(kNuclei[0]);
constexpr size_t kNumCodas = sizeof(kCodas) / sizeof(kCodas[0]);

}  // namespace

std::string WordFactory::MakeWord() {
  const int syllables = static_cast<int>(rng_.SkewedInt(1, 4, 1.6));
  std::string word;
  for (int i = 0; i < syllables; ++i) {
    word += kOnsets[rng_.Index(kNumOnsets)];
    word += kNuclei[rng_.Index(kNumNuclei)];
    if (i + 1 == syllables || rng_.Bernoulli(0.3)) {
      word += kCodas[rng_.Index(kNumCodas)];
    }
  }
  return word;
}

std::vector<std::string> WordFactory::MakeVocabulary(size_t n) {
  std::vector<std::string> vocab;
  vocab.reserve(n);
  std::vector<std::string> sorted;
  while (vocab.size() < n) {
    std::string w = MakeWord();
    // Cheap distinctness: suffix a counter on collision instead of rejecting
    // forever when the syllable space saturates.
    if (std::find(vocab.begin(), vocab.end(), w) != vocab.end()) {
      w += std::to_string(vocab.size());
    }
    vocab.push_back(std::move(w));
  }
  return vocab;
}

std::string WordFactory::MakeCode() {
  static const char* kLetters = "abcdefghjkmnprstuvwxz";
  std::string code;
  const int letters = static_cast<int>(rng_.UniformInt(1, 3));
  for (int i = 0; i < letters; ++i) code += kLetters[rng_.Index(21)];
  const int digits = static_cast<int>(rng_.UniformInt(2, 4));
  for (int i = 0; i < digits; ++i) {
    code += static_cast<char>('0' + rng_.Index(10));
  }
  if (rng_.Bernoulli(0.3)) code += kLetters[rng_.Index(21)];
  return code;
}

std::string InjectTypo(const std::string& s, Rng* rng) {
  if (s.empty()) return s;
  std::string out = s;
  const size_t pos = rng->Index(out.size());
  switch (rng->Index(4)) {
    case 0:  // swap adjacent
      if (pos + 1 < out.size()) std::swap(out[pos], out[pos + 1]);
      break;
    case 1:  // delete
      out.erase(pos, 1);
      break;
    case 2:  // insert
      out.insert(out.begin() + static_cast<long>(pos),
                 static_cast<char>('a' + rng->Index(26)));
      break;
    default:  // replace
      out[pos] = static_cast<char>('a' + rng->Index(26));
      break;
  }
  return out;
}

std::string InjectTypos(const std::string& s, int count, Rng* rng) {
  std::string out = s;
  for (int i = 0; i < count; ++i) out = InjectTypo(out, rng);
  return out;
}

std::string DropTokens(const std::string& s, double rate, Rng* rng) {
  std::vector<std::string> tokens = SplitWhitespace(s);
  if (tokens.size() <= 1) return s;
  std::vector<std::string> kept;
  for (const std::string& t : tokens) {
    if (!rng->Bernoulli(rate)) kept.push_back(t);
  }
  if (kept.empty()) kept.push_back(tokens[rng->Index(tokens.size())]);
  return Join(kept, " ");
}

std::string AbbreviateFirstName(const std::string& full_name, bool dots,
                                Rng* rng) {
  (void)rng;
  std::vector<std::string> parts = SplitWhitespace(full_name);
  if (parts.size() < 2) return full_name;
  std::string out;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    out += parts[i].substr(0, 1);
    if (dots) out += '.';
    out += ' ';
  }
  out += parts.back();
  return out;
}

const std::vector<std::string>& PersonNamePool::FirstNames() {
  static const std::vector<std::string> kNames = {
      "james",   "mary",    "robert",  "patricia", "john",    "jennifer",
      "michael", "linda",   "david",   "elizabeth", "william", "barbara",
      "richard", "susan",   "joseph",  "jessica",  "thomas",  "sarah",
      "charles", "karen",   "daniel",  "lisa",     "matthew", "nancy",
      "anthony", "betty",   "mark",    "margaret", "donald",  "sandra",
      "steven",  "ashley",  "paul",    "kimberly", "andrew",  "emily",
      "joshua",  "donna",   "kenneth", "michelle", "kevin",   "dorothy",
      "brian",   "carol",   "george",  "amanda",   "edward",  "melissa",
      "ronald",  "deborah", "timothy", "stephanie", "jason",  "rebecca",
      "jeffrey", "sharon",  "ryan",    "laura",    "jacob",   "cynthia",
      "gary",    "kathleen", "nicholas", "amy",     "eric",    "angela",
      "jonathan", "shirley", "stephen", "anna",     "larry",   "brenda",
      "justin",  "pamela",  "scott",   "emma",     "brandon", "nicole",
      "benjamin", "helen",  "samuel",  "samantha", "gregory", "katherine",
      "frank",   "christine", "alexander", "debra", "raymond", "rachel"};
  return kNames;
}

const std::vector<std::string>& PersonNamePool::LastNames() {
  static const std::vector<std::string> kNames = {
      "smith",    "johnson",  "williams", "brown",    "jones",    "garcia",
      "miller",   "davis",    "rodriguez", "martinez", "hernandez", "lopez",
      "gonzalez", "wilson",   "anderson", "thomas",   "taylor",   "moore",
      "jackson",  "martin",   "lee",      "perez",    "thompson", "white",
      "harris",   "sanchez",  "clark",    "ramirez",  "lewis",    "robinson",
      "walker",   "young",    "allen",    "king",     "wright",   "scott",
      "torres",   "nguyen",   "hill",     "flores",   "green",    "adams",
      "nelson",   "baker",    "hall",     "rivera",   "campbell", "mitchell",
      "carter",   "roberts",  "gomez",    "phillips", "evans",    "turner",
      "diaz",     "parker",   "cruz",     "edwards",  "collins",  "reyes",
      "stewart",  "morris",   "morales",  "murphy",   "cook",     "rogers",
      "gutierrez", "ortiz",   "morgan",   "cooper",   "peterson", "bailey",
      "reed",     "kelly",    "howard",   "ramos",    "kim",      "cox",
      "ward",     "richardson", "watson", "brooks",   "chavez",   "wood",
      "james",    "bennett",  "gray",     "mendoza",  "ruiz",     "hughes",
      "price",    "alvarez",  "castillo", "sanders",  "patel",    "myers",
      "long",     "ross",     "foster",   "jimenez",  "zhang",    "chen",
      "wang",     "li",       "liu",      "yang",     "huang",    "wu"};
  return kNames;
}

std::string MakePersonName(Rng* rng) {
  const auto& first = PersonNamePool::FirstNames();
  const auto& last = PersonNamePool::LastNames();
  return first[rng->Index(first.size())] + " " + last[rng->Index(last.size())];
}

}  // namespace learnrisk
