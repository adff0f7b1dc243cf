#include "rdf/ntriples.h"

#include <cctype>
#include <fstream>
#include <optional>
#include <vector>

#include "util/atomic_file.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace kbqa::rdf {

namespace {

std::string EscapeLiteral(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Parses `digits` hex characters of `line` starting at `*pos`; advances
/// `*pos` past them. Returns nullopt on a short or non-hex sequence.
std::optional<uint32_t> ReadHexDigits(const std::string& line, size_t* pos,
                                      int digits) {
  uint32_t value = 0;
  for (int d = 0; d < digits; ++d) {
    if (*pos >= line.size()) return std::nullopt;
    const char c = line[*pos];
    uint32_t nibble;
    if (c >= '0' && c <= '9') {
      nibble = static_cast<uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      nibble = static_cast<uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      nibble = static_cast<uint32_t>(c - 'A' + 10);
    } else {
      return std::nullopt;
    }
    value = (value << 4) | nibble;
    ++*pos;
  }
  return value;
}

/// Appends the UTF-8 encoding of `cp`. False for surrogate code points and
/// anything beyond U+10FFFF (not Unicode scalar values).
bool AppendUtf8(uint32_t cp, std::string* out) {
  if ((cp >= 0xD800 && cp <= 0xDFFF) || cp > 0x10FFFF) return false;
  if (cp < 0x80) {
    *out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    *out += static_cast<char>(0xC0 | (cp >> 6));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    *out += static_cast<char>(0xE0 | (cp >> 12));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    *out += static_cast<char>(0xF0 | (cp >> 18));
    *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    *out += static_cast<char>(0x80 | (cp & 0x3F));
  }
  return true;
}

/// Reads an angle-bracketed term starting at `pos`; advances `pos` past it.
Result<std::string> ReadIri(const std::string& line, size_t* pos) {
  if (*pos >= line.size() || line[*pos] != '<') {
    return Status::InvalidArgument("expected '<' at column " +
                                   std::to_string(*pos));
  }
  size_t close = line.find('>', *pos + 1);
  if (close == std::string::npos) {
    return Status::InvalidArgument("unterminated IRI");
  }
  std::string iri = line.substr(*pos + 1, close - *pos - 1);
  if (iri.empty()) return Status::InvalidArgument("empty IRI");
  *pos = close + 1;
  return iri;
}

/// Reads a quoted literal with escapes starting at `pos`.
Result<std::string> ReadLiteral(const std::string& line, size_t* pos) {
  std::string out;
  for (size_t i = *pos + 1; i < line.size(); ++i) {
    char c = line[i];
    if (c == '\\') {
      if (i + 1 >= line.size()) {
        return Status::InvalidArgument("dangling escape");
      }
      char next = line[++i];
      switch (next) {
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case 'u':
        case 'U': {
          // \uXXXX / \UXXXXXXXX numeric escapes (N-Triples spec UCHAR),
          // decoded to UTF-8 bytes.
          size_t hex_pos = i + 1;
          auto cp = ReadHexDigits(line, &hex_pos, next == 'u' ? 4 : 8);
          if (!cp || !AppendUtf8(*cp, &out)) {
            return Status::InvalidArgument(
                std::string("bad numeric escape \\") + next);
          }
          i = hex_pos - 1;  // The loop increment steps past the last digit.
          break;
        }
        default:
          return Status::InvalidArgument(std::string("bad escape \\") + next);
      }
    } else if (c == '"') {
      *pos = i + 1;
      return out;
    } else {
      out += c;
    }
  }
  return Status::InvalidArgument("unterminated literal");
}

void SkipSpace(const std::string& line, size_t* pos) {
  while (*pos < line.size() &&
         std::isspace(static_cast<unsigned char>(line[*pos]))) {
    ++*pos;
  }
}

}  // namespace

Result<NTriple> ParseNTripleLine(const std::string& line) {
  NTriple triple;
  size_t pos = 0;
  SkipSpace(line, &pos);

  auto subject = ReadIri(line, &pos);
  if (!subject.ok()) return subject.status();
  triple.subject = std::move(subject).value();
  SkipSpace(line, &pos);

  auto predicate = ReadIri(line, &pos);
  if (!predicate.ok()) return predicate.status();
  triple.predicate = std::move(predicate).value();
  SkipSpace(line, &pos);

  if (pos >= line.size()) return Status::InvalidArgument("missing object");
  if (line[pos] == '"') {
    auto literal = ReadLiteral(line, &pos);
    if (!literal.ok()) return literal.status();
    triple.object = std::move(literal).value();
    triple.object_is_literal = true;
  } else {
    auto object = ReadIri(line, &pos);
    if (!object.ok()) return object.status();
    triple.object = std::move(object).value();
  }
  SkipSpace(line, &pos);
  if (pos >= line.size() || line[pos] != '.') {
    return Status::InvalidArgument("missing terminating '.'");
  }
  ++pos;
  SkipSpace(line, &pos);
  if (pos != line.size()) {
    return Status::InvalidArgument("trailing content after '.'");
  }
  return triple;
}

std::string FormatNTripleLine(const NTriple& triple) {
  std::string out = "<";
  out += triple.subject;
  out += "> <";
  out += triple.predicate;
  out += "> ";
  if (triple.object_is_literal) {
    out += '"';
    out += EscapeLiteral(triple.object);
    out += '"';
  } else {
    out += '<';
    out += triple.object;
    out += '>';
  }
  out += " .";
  return out;
}

Status ExportNTriples(const KnowledgeBase& kb, const std::string& path) {
  if (!kb.frozen()) {
    return Status::FailedPrecondition("ExportNTriples requires Freeze()");
  }
  // Crash-safe: an export that dies part-way leaves the previous file at
  // `path` whole.
  return util::WriteFileAtomically(path, [&kb](util::FileSink& w) {
    w.Write("# exported by kbqa rdf::ExportNTriples — " +
            std::to_string(kb.num_triples()) + " triples\n");
    NTriple triple;
    for (TermId s = 0; s < kb.num_nodes(); ++s) {
      if (kb.IsLiteral(s)) continue;
      for (const auto& [p, o] : kb.Out(s)) {
        triple.subject = kb.NodeString(s);
        triple.predicate = kb.PredicateString(p);
        triple.object = kb.NodeString(o);
        triple.object_is_literal = kb.IsLiteral(o);
        w.Write(FormatNTripleLine(triple) + '\n');
      }
    }
  });
}

Result<KnowledgeBase> ImportNTriples(const std::string& path,
                                     const std::string& name_predicate,
                                     int num_threads) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  KnowledgeBase kb;
  ThreadPool pool(num_threads);

  // Lines are read in blocks, parsed in parallel (each shard writes only
  // its own disjoint slots of `parsed`), then interned serially in file
  // order — dictionary ids never depend on the thread count.
  constexpr size_t kBlockLines = 4096;
  constexpr size_t kShards = 32;
  struct ParseError {
    size_t line_index;  // within the current block
    std::string message;
  };
  std::vector<std::string> block;
  block.reserve(kBlockLines);
  std::vector<std::optional<NTriple>> parsed;
  std::string line;
  size_t lines_before_block = 0;
  for (;;) {
    block.clear();
    while (block.size() < kBlockLines && std::getline(in, line)) {
      block.push_back(std::move(line));
    }
    if (block.empty()) break;
    parsed.assign(block.size(), std::nullopt);
    auto error = ParallelReduce(
        pool, block.size(), kShards, std::optional<ParseError>{},
        [&](size_t /*shard*/, size_t begin,
            size_t end) -> std::optional<ParseError> {
          for (size_t i = begin; i < end; ++i) {
            std::string_view trimmed = Trim(block[i]);
            if (trimmed.empty() || trimmed[0] == '#') continue;
            auto triple = ParseNTripleLine(block[i]);
            if (!triple.ok()) {
              return ParseError{i, triple.status().message()};
            }
            parsed[i] = std::move(triple).value();
          }
          return std::nullopt;
        },
        [](std::optional<ParseError>& acc, std::optional<ParseError>&& part) {
          // Shards cover contiguous line ranges in order, so the first
          // error in shard order is the first error in file order.
          if (!acc && part) acc = std::move(part);
        });
    if (error) {
      return Status::InvalidArgument(
          path + ":" + std::to_string(lines_before_block + error->line_index +
                                      1) +
          ": " + error->message);
    }
    for (std::optional<NTriple>& triple : parsed) {
      if (!triple) continue;
      kb.AddTriple(triple->subject, triple->predicate, triple->object,
                   triple->object_is_literal);
    }
    lines_before_block += block.size();
  }
  auto name_pred = kb.LookupPredicate(name_predicate);
  if (name_pred) kb.SetNamePredicate(*name_pred);
  kb.Freeze(num_threads);
  return kb;
}

}  // namespace kbqa::rdf
