/**
 * @file
 * RFC 8259 document parser and string quoter.
 */

#include "json.h"

#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>

namespace speclens {
namespace obs {

namespace {

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    bool
    document(JsonValue &out)
    {
        skipWs();
        if (!value(out, 0))
            return false;
        skipWs();
        return pos_ == text_.size();
    }

  private:
    static constexpr int kMaxDepth = 64;

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth || pos_ >= text_.size())
            return false;
        switch (text_[pos_]) {
          case '{': return object(out, depth);
          case '[': return array(out, depth);
          case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.text);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.flag = true;
            return literal("true");
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            return literal("false");
          case 'n': return literal("null");
          default:
            out.kind = JsonValue::Kind::Number;
            return number(out.text);
        }
    }

    bool
    object(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (eat('}'))
            return true;
        for (;;) {
            skipWs();
            if (!string(out.keys.emplace_back()))
                return false;
            skipWs();
            if (!eat(':'))
                return false;
            skipWs();
            if (!value(out.items.emplace_back(), depth + 1))
                return false;
            skipWs();
            if (!eat(','))
                return eat('}');
        }
    }

    bool
    array(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (eat(']'))
            return true;
        for (;;) {
            skipWs();
            if (!value(out.items.emplace_back(), depth + 1))
                return false;
            skipWs();
            if (!eat(','))
                return eat(']');
        }
    }

    bool
    string(std::string &out)
    {
        if (!eat('"'))
            return false;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (static_cast<unsigned char>(c) < 0x20)
                return false; // Raw control character.
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                return false;
            switch (char e = text_[pos_++]) {
              case '"':
              case '\\':
              case '/': out.push_back(e); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u':
                if (!codePoint(out))
                    return false;
                break;
              default: return false;
            }
        }
        return false; // Unterminated.
    }

    /** The four hex digits after `\u`, appended as one byte below
     *  0x100 and as UTF-8 above. */
    bool
    codePoint(std::string &out)
    {
        unsigned code = 0;
        if (pos_ + 4 > text_.size() ||
            std::from_chars(text_.data() + pos_, text_.data() + pos_ + 4,
                            code, 16)
                    .ptr != text_.data() + pos_ + 4)
            return false;
        pos_ += 4;
        if (code < 0x100) {
            out.push_back(static_cast<char>(code));
        } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
        }
        return true;
    }

    /** `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept
     *  as its lexeme. */
    bool
    number(std::string &lexeme)
    {
        const std::size_t start = pos_;
        eat('-');
        if (!eat('0') && !digits())
            return false;
        if (eat('.') && !digits())
            return false;
        if (eat('e') || eat('E')) {
            if (!eat('+'))
                eat('-');
            if (!digits())
                return false;
        }
        lexeme = text_.substr(start, pos_ - start);
        return true;
    }

    bool
    digits()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        return pos_ > start;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    eat(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

/** Parse all of @p text as a T; false on any leftover or failure. */
template <typename T>
bool
parseWhole(const std::string &text, T &out)
{
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc() && ptr == end;
}

} // namespace

const JsonValue *
JsonValue::find(std::string_view path) const
{
    const JsonValue *at = this;
    while (!path.empty()) {
        const std::size_t dot = path.find('.');
        const std::string_view key = path.substr(0, dot);
        path = dot == std::string_view::npos ? "" : path.substr(dot + 1);
        if (at->kind != Kind::Object)
            return nullptr;
        const JsonValue *next = nullptr;
        for (std::size_t i = 0; i < at->keys.size(); ++i)
            if (at->keys[i] == key)
                next = &at->items[i];
        if (!next)
            return nullptr;
        at = next;
    }
    return at;
}

bool
JsonValue::number(std::string_view path, double &out) const
{
    const JsonValue *v = find(path);
    return v && v->kind == Kind::Number && parseWhole(v->text, out);
}

bool
JsonValue::u64(std::string_view path, std::uint64_t &out) const
{
    // from_chars accepts no sign for an unsigned type, stops at a
    // fraction or exponent and reports overflow.
    const JsonValue *v = find(path);
    return v && v->kind == Kind::Number && parseWhole(v->text, out);
}

bool
JsonValue::string(std::string_view path, std::string &out) const
{
    const JsonValue *v = find(path);
    if (!v || v->kind != Kind::String)
        return false;
    out = v->text;
    return true;
}

bool
JsonValue::boolean(std::string_view path, bool &out) const
{
    const JsonValue *v = find(path);
    if (!v || v->kind != Kind::Bool)
        return false;
    out = v->flag;
    return true;
}

bool
JsonValue::hex16(std::string_view path) const
{
    const JsonValue *v = find(path);
    return v && v->kind == Kind::String && v->text.size() == 16 &&
           v->text.find_first_not_of("0123456789abcdef") ==
               std::string::npos;
}

JsonFile
readJsonFile(const std::string &path)
{
    JsonFile file;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return file;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    file.present = !in.bad();
    file.bytes = text.size();
    if (file.present)
        file.doc = parseJson(text);
    return file;
}

std::optional<JsonValue>
parseJson(std::string_view text)
{
    JsonValue root;
    if (!Parser(text).document(root))
        return std::nullopt;
    return root;
}

std::string
jsonQuote(std::string_view text)
{
    std::string out = "\"";
    for (char c : text) {
        unsigned char u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (u < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof(buffer), "\\u%04x", u);
            out += buffer;
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

} // namespace obs
} // namespace speclens
