#include "corpus/corpus_io.h"

#include <fstream>

#include "util/atomic_file.h"
#include "util/strings.h"

namespace kbqa::corpus {

std::string EscapeTsvField(const std::string& field) {
  std::string out;
  out.reserve(field.size());
  for (char c : field) {
    switch (c) {
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string UnescapeTsvField(const std::string& field) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] == '\\' && i + 1 < field.size()) {
      char next = field[++i];
      switch (next) {
        case 't':
          out += '\t';
          break;
        case 'n':
          out += '\n';
          break;
        case '\\':
          out += '\\';
          break;
        default:  // Unknown escape: keep verbatim.
          out += '\\';
          out += next;
      }
    } else {
      out += field[i];
    }
  }
  return out;
}

Status ExportQaTsv(const QaCorpus& corpus, const std::string& path) {
  // Crash-safe: an export that dies part-way leaves the previous file at
  // `path` whole.
  return util::WriteFileAtomically(path, [&corpus](util::FileSink& w) {
    w.Write("# question\tanswer (" + std::to_string(corpus.size()) +
            " pairs)\n");
    for (const QaPair& pair : corpus.pairs) {
      w.Write(EscapeTsvField(pair.question) + '\t' +
              EscapeTsvField(pair.answer) + '\n');
    }
  });
}

Result<QaCorpus> ImportQaTsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for read: " + path);
  QaCorpus corpus;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    // Split on the first unescaped tab. Escaped tabs are "\t" two-char
    // sequences, so a raw '\t' byte is always the separator.
    size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": expected question<TAB>answer");
    }
    QaPair pair;
    pair.question = UnescapeTsvField(line.substr(0, tab));
    pair.answer = UnescapeTsvField(line.substr(tab + 1));
    if (pair.question.empty()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_number) +
                                     ": empty question");
    }
    corpus.pairs.push_back(std::move(pair));
    corpus.gold.emplace_back();  // Real corpora carry no gold annotations.
  }
  return corpus;
}

}  // namespace kbqa::corpus
