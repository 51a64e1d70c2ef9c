#include "sql/lexer.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <set>

namespace dvp::sql
{

namespace
{

const std::set<std::string> &
keywords()
{
    static const std::set<std::string> kw = {
        "SELECT", "FROM",   "WHERE", "BETWEEN", "AND",   "ANY",
        "COUNT",  "GROUP",  "BY",    "AS",      "INNER", "JOIN",
        "ON",     "LOAD",   "DATA",  "LOCAL",   "INFILE", "REPLACE",
        "INTO",   "TABLE",  "TRUE",  "FALSE",   "EXPLAIN",
        "ANALYZE", "IS",    "NOT",   "NULL",    "INSERT", "VALUES",
        "CHECKPOINT"};
    return kw;
}

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '$' || c == '[' || c == ']';
}

} // namespace

bool
isKeyword(const std::string &upper)
{
    return keywords().count(upper) > 0;
}

LexResult
lex(const std::string &text)
{
    LexResult out;
    size_t i = 0;
    auto fail = [&](const std::string &msg, size_t pos) {
        out.ok = false;
        out.error = msg;
        out.errorPos = pos;
        return out;
    };

    while (i < text.size()) {
        char c = text[i];
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        size_t start = i;

        if (c == '\'' || c == '"') {
            char quote = c;
            std::string body;
            ++i;
            bool closed = false;
            while (i < text.size()) {
                if (text[i] == quote) {
                    // Doubled quote escapes itself (SQL convention).
                    if (i + 1 < text.size() && text[i + 1] == quote) {
                        body += quote;
                        i += 2;
                        continue;
                    }
                    closed = true;
                    ++i;
                    break;
                }
                body += text[i++];
            }
            if (!closed)
                return fail("unterminated string literal", start);
            out.tokens.push_back(
                {TokKind::String, std::move(body), 0, start});
            continue;
        }

        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '-' &&
             i + 1 < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
            size_t end = i + 1;
            while (end < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[end])))
                ++end;
            Token t{TokKind::Integer, text.substr(i, end - i), 0,
                    start};
            auto [ptr, ec] = std::from_chars(text.data() + i,
                                             text.data() + end, t.number);
            if (ec != std::errc())
                return fail("integer literal out of range", start);
            out.tokens.push_back(std::move(t));
            i = end;
            continue;
        }

        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            size_t end = i;
            while (end < text.size() && identChar(text[end]))
                ++end;
            std::string word = text.substr(i, end - i);
            std::string upper = word;
            std::transform(upper.begin(), upper.end(), upper.begin(),
                           [](unsigned char ch) {
                               return std::toupper(ch);
                           });
            if (isKeyword(upper))
                out.tokens.push_back(
                    {TokKind::Keyword, std::move(upper), 0, start});
            else
                out.tokens.push_back(
                    {TokKind::Ident, std::move(word), 0, start});
            i = end;
            continue;
        }

        if (std::strchr("(),=*;.", c)) {
            out.tokens.push_back(
                {TokKind::Punct, std::string(1, c), 0, start});
            ++i;
            continue;
        }
        return fail(std::string("unexpected character '") + c + "'",
                    start);
    }
    out.tokens.push_back({TokKind::End, "", 0, text.size()});
    return out;
}

} // namespace dvp::sql
