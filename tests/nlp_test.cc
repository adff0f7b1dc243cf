#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "nlp/ner.h"
#include "nlp/pattern.h"
#include "nlp/question_classifier.h"
#include "nlp/stopwords.h"
#include "nlp/tokenizer.h"
#include "rdf/knowledge_base.h"
#include "rdf/ntriples.h"

namespace kbqa::nlp {
namespace {

// ---------- Tokenizer ----------

TEST(TokenizerTest, LowercasesAndStripsPunctuation) {
  EXPECT_EQ(Tokenize("How many People are there, in Honolulu?"),
            (std::vector<std::string>{"how", "many", "people", "are", "there",
                                      "in", "honolulu"}));
}

TEST(TokenizerTest, KeepsDigitsAndInternalHyphens) {
  EXPECT_EQ(Tokenize("born in 1961 twenty-one"),
            (std::vector<std::string>{"born", "in", "1961", "twenty-one"}));
}

TEST(TokenizerTest, StripsSurroundingQuotesAndHyphens) {
  EXPECT_EQ(Tokenize("'hello' -world-"),
            (std::vector<std::string>{"hello", "world"}));
  EXPECT_TRUE(Tokenize("...!!!").empty());
  EXPECT_TRUE(Tokenize("").empty());
}

TEST(TokenizerTest, PossessiveFormsNormalizeIdentically) {
  // "obama's" and "obama 's" must produce the same token stream — template
  // matching depends on it.
  EXPECT_EQ(TokenizeQuestion("barack obama's wife"),
            TokenizeQuestion("barack obama 's wife"));
  EXPECT_EQ(TokenizeQuestion("obama's wife"),
            (std::vector<std::string>{"obama", "s", "wife"}));
}

TEST(TokenizerTest, NormalizeTextIsCanonical) {
  EXPECT_EQ(NormalizeText("  Who IS Barack Obama's wife? "),
            "who is barack obama s wife");
  EXPECT_EQ(NormalizeText("390,000"), "390 000");
}

TEST(TokenizerTest, JoinTokensRoundTrip) {
  std::vector<std::string> tokens = {"a", "b", "c"};
  EXPECT_EQ(JoinTokens(tokens), "a b c");
  EXPECT_EQ(JoinTokens({}), "");
}

// ---------- UTF-8 aware lowercasing ----------

TEST(TokenizerUtf8Test, FoldsLatin1AndLatinExtendedA) {
  EXPECT_EQ(Tokenize("José ÉCLAIR Čapek ŁÓDŹ"),
            (std::vector<std::string>{"josé", "éclair", "čapek", "łódź"}));
  // Ÿ is the one upper/lower pair split across the two blocks.
  EXPECT_EQ(Tokenize("Ÿ"), (std::vector<std::string>{"ÿ"}));
  // Turkish dotted capital İ folds to plain ASCII i (gazetteer keys don't
  // want the combining dot of the strict folding).
  EXPECT_EQ(Tokenize("İstanbul"), (std::vector<std::string>{"istanbul"}));
}

TEST(TokenizerUtf8Test, MultiplicationSignIsNotALetter) {
  // U+00D7 sits in the middle of the Latin-1 uppercase range but must not
  // fold to U+00F7 (division sign).
  EXPECT_EQ(Tokenize("3×4"), (std::vector<std::string>{"3×4"}));
}

TEST(TokenizerUtf8Test, AccentedWordsStayWholeTokens) {
  // Bytes >= 0x80 are word content: "josé" must not split after the "s"
  // the way a locale-dependent isalnum could make it.
  EXPECT_EQ(Tokenize("Où est José?"),
            (std::vector<std::string>{"où", "est", "josé"}));
}

TEST(TokenizerUtf8Test, OtherScriptsPassThroughUnchanged) {
  // Cyrillic/CJK are outside the folded blocks: preserved byte-for-byte.
  EXPECT_EQ(Tokenize("МОСКВА 北京"),
            (std::vector<std::string>{"МОСКВА", "北京"}));
}

TEST(TokenizerUtf8Test, MalformedUtf8PassesThroughBytewise) {
  // A stray continuation byte and a truncated lead byte must not be
  // dropped or mangled — copied through as-is inside their token.
  const std::string stray = std::string("ab") + '\x85' + "cd";
  ASSERT_EQ(Tokenize(stray).size(), 1u);
  EXPECT_EQ(Tokenize(stray)[0], stray);
  const std::string truncated = std::string("x") + '\xC3';
  ASSERT_EQ(Tokenize(truncated).size(), 1u);
  EXPECT_EQ(Tokenize(truncated)[0], truncated);
}

/// \uXXXX escape of `cp` as written in an N-Triples literal.
std::string UEscape(uint32_t cp) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "\\u%04X", cp);
  return buf;
}

TEST(TokenizerUtf8PropertyTest, EscapedKbNamesFoldLikeTheirLowercaseForms) {
  // Property over every upper/lower pair the tokenizer folds: a KB entity
  // name arriving as an N-Triples \uXXXX escape of the UPPERCASE form must
  // tokenize identically to the plain lowercase form — the invariant
  // gazetteer lookups rely on (names are interned lowercase; questions may
  // use any case).
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (uint32_t cp = 0xC0; cp <= 0xDE; ++cp) {
    if (cp != 0xD7) pairs.emplace_back(cp, cp + 0x20);
  }
  for (uint32_t cp = 0x100; cp <= 0x136; cp += 2) {
    // İ (U+0130) folds to plain ASCII "i", not U+0131 — checked below.
    if (cp != 0x130) pairs.emplace_back(cp, cp + 1);
  }
  pairs.emplace_back(0x130, 'i');
  for (uint32_t cp = 0x139; cp <= 0x147; cp += 2) pairs.emplace_back(cp, cp + 1);
  for (uint32_t cp = 0x14A; cp <= 0x176; cp += 2) pairs.emplace_back(cp, cp + 1);
  pairs.emplace_back(0x178, 0xFF);
  for (uint32_t cp : {0x179u, 0x17Bu, 0x17Du}) pairs.emplace_back(cp, cp + 1);

  for (const auto& [upper, lower] : pairs) {
    const std::string line = "<e/x> <name> \"Q" + UEscape(upper) + "x\" .";
    auto parsed = rdf::ParseNTripleLine(line);
    ASSERT_TRUE(parsed.ok()) << line;
    std::string expected = "q";
    // Lowercase reference form, UTF-8 encoded by hand (every lower half is
    // either ASCII or < 0x800: two bytes).
    if (lower < 0x80) {
      expected.push_back(static_cast<char>(lower));
    } else {
      expected.push_back(static_cast<char>(0xC0 | (lower >> 6)));
      expected.push_back(static_cast<char>(0x80 | (lower & 0x3F)));
    }
    expected.push_back('x');
    const auto tokens = Tokenize(parsed.value().object);
    ASSERT_EQ(tokens.size(), 1u) << line;
    EXPECT_EQ(tokens[0], expected)
        << "U+" << std::hex << upper << " did not fold to U+" << lower;
  }
}

TEST(TokenizerUtf8Test, EscapedKbEntityFoundByGazetteerAnyCase) {
  // End-to-end satellite check: an entity whose name enters the KB via
  // N-Triples \uXXXX escapes is found by the NER regardless of question
  // casing.
  rdf::KnowledgeBase kb;
  const rdf::PredId name = kb.AddPredicate("name");
  kb.SetNamePredicate(name);
  auto parsed = rdf::ParseNTripleLine(
      "<e/jose_garcia> <name> \"Jos\\u00C9 Garc\\u00CDa\" .");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  const rdf::NTriple& triple = parsed.value();
  ASSERT_TRUE(triple.object_is_literal);
  kb.AddTriple(triple.subject, triple.predicate, triple.object,
               /*object_is_literal=*/true);
  kb.Freeze();
  GazetteerNer ner(kb);

  for (const char* question :
       {"where was josé garcía born", "where was JOSÉ GARCÍA born",
        "where was JosÉ GarcÍa born"}) {
    const auto mentions = ner.FindMentions(TokenizeQuestion(question));
    ASSERT_EQ(mentions.size(), 1u) << question;
    EXPECT_EQ(mentions[0].size(), 2u) << question;
  }
}

// ---------- Stopwords ----------

TEST(StopwordsTest, FunctionWordsAreStopwords) {
  for (const char* w : {"the", "of", "is", "what", "how", "many", "'s"}) {
    EXPECT_TRUE(IsStopword(w)) << w;
  }
  for (const char* w : {"population", "wife", "honolulu", "capital"}) {
    EXPECT_FALSE(IsStopword(w)) << w;
  }
}

// ---------- NER ----------

class NerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    rdf::PredId name = kb_.AddPredicate("name");
    kb_.SetNamePredicate(name);
    obama_ = kb_.AddEntity("person/obama");
    ny_ = kb_.AddEntity("city/ny");
    nyc_ = kb_.AddEntity("city/nyc");
    apple_fruit_ = kb_.AddEntity("fruit/apple");
    apple_co_ = kb_.AddEntity("company/apple");
    kb_.AddTriple(obama_, name, kb_.AddLiteral("barack obama"));
    kb_.AddTriple(ny_, name, kb_.AddLiteral("new york"));
    kb_.AddTriple(nyc_, name, kb_.AddLiteral("new york city"));
    kb_.AddTriple(apple_fruit_, name, kb_.AddLiteral("apple"));
    kb_.AddTriple(apple_co_, name, kb_.AddLiteral("apple"));
    kb_.Freeze();
    ner_ = std::make_unique<GazetteerNer>(kb_);
  }

  rdf::KnowledgeBase kb_;
  rdf::TermId obama_, ny_, nyc_, apple_fruit_, apple_co_;
  std::unique_ptr<GazetteerNer> ner_;
};

TEST_F(NerTest, FindsMultiTokenMention) {
  auto mentions = ner_->FindMentions(TokenizeQuestion(
      "when was barack obama born"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].begin, 2u);
  EXPECT_EQ(mentions[0].end, 4u);
  EXPECT_EQ(mentions[0].entities, (std::vector<rdf::TermId>{obama_}));
}

TEST_F(NerTest, LongestMatchWins) {
  auto mentions =
      ner_->FindMentions(TokenizeQuestion("i love new york city a lot"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].entities, (std::vector<rdf::TermId>{nyc_}));
  EXPECT_EQ(mentions[0].size(), 3u);
}

TEST_F(NerTest, AmbiguousNameYieldsAllCandidates) {
  auto mentions = ner_->FindMentions(TokenizeQuestion("what about apple"));
  ASSERT_EQ(mentions.size(), 1u);
  EXPECT_EQ(mentions[0].entities.size(), 2u);
}

TEST_F(NerTest, NoMentionsInPlainText) {
  EXPECT_TRUE(ner_->FindMentions(TokenizeQuestion("how are you today"))
                  .empty());
}

TEST_F(NerTest, MultipleMentions) {
  auto mentions = ner_->FindMentions(
      TokenizeQuestion("which has more people , new york or apple"));
  ASSERT_EQ(mentions.size(), 2u);
  EXPECT_EQ(mentions[0].entities, (std::vector<rdf::TermId>{ny_}));
  EXPECT_EQ(mentions[1].entities.size(), 2u);
}

TEST_F(NerTest, EntitiesForSpanExactOnly) {
  auto tokens = TokenizeQuestion("when was barack obama born");
  EXPECT_EQ(ner_->EntitiesForSpan(tokens, 2, 4),
            (std::vector<rdf::TermId>{obama_}));
  EXPECT_TRUE(ner_->EntitiesForSpan(tokens, 2, 5).empty());
  EXPECT_TRUE(ner_->EntitiesForSpan(tokens, 3, 3).empty());  // empty span
}

TEST_F(NerTest, LooksLikeNumber) {
  EXPECT_TRUE(LooksLikeNumber("1961"));
  EXPECT_FALSE(LooksLikeNumber("19a"));
  EXPECT_FALSE(LooksLikeNumber(""));
}

// ---------- Question classifier ----------

struct ClassifierCase {
  const char* question;
  QuestionClass expected;
};

// Without this, gtest prints a case as its raw bytes -- the question's
// address plus padding -- and the test names change from run to run.
void PrintTo(const ClassifierCase& c, std::ostream* os) { *os << c.question; }

class ClassifierTest : public ::testing::TestWithParam<ClassifierCase> {};

TEST_P(ClassifierTest, ClassifiesCase) {
  QuestionClassifier classifier;
  EXPECT_EQ(classifier.Classify(TokenizeQuestion(GetParam().question)),
            GetParam().expected)
      << GetParam().question;
}

INSTANTIATE_TEST_SUITE_P(
    UiucCases, ClassifierTest,
    ::testing::Values(
        ClassifierCase{"who is the wife of barack obama",
                       QuestionClass::kHuman},
        ClassifierCase{"whose idea was it", QuestionClass::kHuman},
        ClassifierCase{"where was barack obama born",
                       QuestionClass::kLocation},
        ClassifierCase{"when was barack obama born", QuestionClass::kNumeric},
        ClassifierCase{"why is the sky blue", QuestionClass::kDescription},
        ClassifierCase{"how many people are there in honolulu",
                       QuestionClass::kNumeric},
        ClassifierCase{"how long is the mississippi river",
                       QuestionClass::kNumeric},
        ClassifierCase{"how do i get to tokyo", QuestionClass::kDescription},
        ClassifierCase{"what is the population of honolulu",
                       QuestionClass::kNumeric},
        ClassifierCase{"what is the capital of japan",
                       QuestionClass::kLocation},
        ClassifierCase{"what is the name of obama 's wife",
                       QuestionClass::kHuman},
        ClassifierCase{"which city was obama born in",
                       QuestionClass::kLocation},
        ClassifierCase{"what currency is used in japan",
                       QuestionClass::kEntity},
        ClassifierCase{"barack obama 's wife", QuestionClass::kHuman},
        ClassifierCase{"the capital of japan", QuestionClass::kLocation}));

TEST(ClassifierTest, EmptyIsUnknown) {
  QuestionClassifier classifier;
  EXPECT_EQ(classifier.Classify({}), QuestionClass::kUnknown);
}

TEST(ClassifierTest, EveryClassHasAName) {
  for (QuestionClass c :
       {QuestionClass::kAbbreviation, QuestionClass::kDescription,
        QuestionClass::kEntity, QuestionClass::kHuman,
        QuestionClass::kLocation, QuestionClass::kNumeric,
        QuestionClass::kUnknown}) {
    EXPECT_STRNE(QuestionClassToString(c), "");
  }
}

// ---------- Pattern index (§5.2) ----------

TEST(PatternTest, MakePattern) {
  std::vector<std::string> tokens = {"when", "was", "michelle", "obama",
                                     "born"};
  EXPECT_EQ(MakePattern(tokens, 2, 4), "when was $e born");
  EXPECT_EQ(MakePattern(tokens, 0, 2), "$e michelle obama born");
  EXPECT_EQ(MakePattern(tokens, 0, 5), "$e");
}

/// The paper's Example 4: two "when was X born" questions where X is an
/// entity, so P("when was $e born") = 1 while P("when $e") = 0 (never a
/// valid entity replacement).
TEST(PatternTest, PaperExampleFour) {
  std::vector<PatternQuestion> corpus(2);
  corpus[0].tokens = {"when", "was", "barack", "obama", "born"};
  corpus[0].mention_spans = {{2, 4}};
  corpus[1].tokens = {"when", "was", "barack", "obama", "born"};
  corpus[1].mention_spans = {{2, 4}};
  PatternIndex index = PatternIndex::Build(corpus);

  EXPECT_DOUBLE_EQ(index.ValidProbability("when was $e born"), 1.0);
  EXPECT_DOUBLE_EQ(index.ValidProbability("when $e"), 0.0);
  auto stats = index.Stats("when was $e born");
  EXPECT_EQ(stats.fo, 2u);
  EXPECT_EQ(stats.fv, 2u);
}

TEST(PatternTest, OverGeneralPatternsArePunished) {
  // "was $e" matches both questions as a substring, but is valid in
  // neither ("was barack" is not an entity) — except in q2 where the
  // mention span happens to be exactly [1,3).
  std::vector<PatternQuestion> corpus(2);
  corpus[0].tokens = {"was", "barack", "obama", "great"};
  corpus[0].mention_spans = {{1, 3}};
  corpus[1].tokens = {"was", "michelle", "obama", "great"};
  corpus[1].mention_spans = {};  // no mention recognized here
  PatternIndex index = PatternIndex::Build(corpus);

  // fv("was $e great") = 1 (q0 mention), fo = 2 (both match by substring).
  EXPECT_DOUBLE_EQ(index.ValidProbability("was $e great"), 0.5);
}

TEST(PatternTest, UnknownPatternIsZero) {
  PatternIndex index = PatternIndex::Build({});
  EXPECT_DOUBLE_EQ(index.ValidProbability("what is $e"), 0.0);
  EXPECT_EQ(index.Stats("what is $e").fo, 0u);
}

TEST(PatternTest, FvNeverExceedsFo) {
  std::vector<PatternQuestion> corpus(3);
  corpus[0].tokens = {"who", "is", "the", "wife", "of", "barack", "obama"};
  corpus[0].mention_spans = {{5, 7}};
  corpus[1].tokens = {"who", "is", "the", "wife", "of", "bill", "gates"};
  corpus[1].mention_spans = {{5, 7}};
  corpus[2].tokens = {"who", "is", "the", "wife", "of", "the", "king"};
  corpus[2].mention_spans = {};
  PatternIndex index = PatternIndex::Build(corpus);
  auto stats = index.Stats("who is the wife of $e");
  EXPECT_LE(stats.fv, stats.fo);
  EXPECT_EQ(stats.fv, 2u);
  EXPECT_EQ(stats.fo, 3u);
}

TEST(PatternTest, LongMentionsBeyondSpanCapStillCount) {
  PatternIndex::Options options;
  options.max_span_tokens = 2;
  std::vector<PatternQuestion> corpus(1);
  corpus[0].tokens = {"about", "the", "very", "long", "entity", "name"};
  corpus[0].mention_spans = {{1, 6}};  // 5 tokens > cap
  PatternIndex index = PatternIndex::Build(corpus, options);
  auto stats = index.Stats("about $e");
  EXPECT_EQ(stats.fv, 1u);
  EXPECT_EQ(stats.fo, 1u);  // counted via the mention fallback
}

}  // namespace
}  // namespace kbqa::nlp
