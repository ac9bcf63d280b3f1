// GL040 unset-field: a member with a default initializer in a src/ settings
// struct (a struct named *Params, *Config or *Plan, nested `Params` included)
// that no file ever assigns. Such a field is a constant that pretends to be
// a setting: it widens the configuration surface without a caller, and its
// readers carry branches no run can take. The fix is a named constant next
// to the code that uses it (DESIGN.md §12).
//
// Assignment evidence is name-based, like GL010's symbol index: `.name =`
// (plain or designated initializer) or `.name.push_back(` anywhere in the
// evidence files marks every member called `name` as set. Members whose type
// is itself a settings struct are containers of settings, not settings; their
// own members are checked instead.

#include "internal.hpp"

namespace geoanon::lint::internal {

namespace {

bool ends_with(const std::string& s, const char* suffix) {
    const std::string suf(suffix);
    return s.size() >= suf.size() && s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

bool is_settings_struct(const std::string& name) {
    return ends_with(name, "Params") || ends_with(name, "Config") || ends_with(name, "Plan");
}

bool is_type_keyword(const std::string& t) {
    return t == "struct" || t == "class" || t == "enum" || t == "union";
}

/// Index of the `{` opening the body of the type declared at toks[kw], or
/// toks.size() for a forward declaration or anything unparsable.
std::size_t body_open(const std::vector<Token>& toks, std::size_t kw) {
    for (std::size_t i = kw + 1; i < toks.size(); ++i) {
        if (toks[i].text == "{") return i;
        if (toks[i].text == ";" || toks[i].text == "(" || toks[i].text == ")" ||
            toks[i].text == "=")
            return toks.size();
    }
    return toks.size();
}

/// Walk the direct members of the struct body (open, close). A member is one
/// declaration statement at depth 1; nested type definitions and member
/// function bodies are skipped whole.
void check_struct_body(const std::string& path, const std::string& struct_name,
                       const std::vector<Token>& toks, std::size_t open, std::size_t close,
                       const std::set<std::string>& assigned, std::vector<Finding>& out) {
    std::size_t stmt = open + 1;  // first token of the current statement
    std::size_t i = stmt;
    while (i < close) {
        const std::string& t = toks[i].text;
        if ((t == "public" || t == "private" || t == "protected") && i + 1 < close &&
            toks[i + 1].text == ":") {
            stmt = i = i + 2;
            continue;
        }
        if (is_type_keyword(t) && i == stmt) {
            // Nested type: a nested struct or class holds settings of its
            // own (FaultPlan::GpsNoise); an enum holds none. Skip its body
            // and any trailing declarator up to `;`.
            const std::size_t b = body_open(toks, i);
            std::size_t j = i;
            if (b < close) {
                j = match_bracket(toks, b, "{", "}");
                if (t != "enum" && t != "union" && toks[i + 1].is_ident)
                    check_struct_body(path, struct_name + "::" + toks[i + 1].text, toks, b,
                                      j, assigned, out);
            }
            while (j < close && toks[j].text != ";") ++j;
            stmt = i = j + 1;
            continue;
        }
        if (t == "(") {
            // A member function (or a constructor): skip the parameter list,
            // then a body if one follows, else run on to the `;`.
            std::size_t j = match_bracket(toks, i, "(", ")");
            while (j < close && toks[j].text != "{" && toks[j].text != ";") ++j;
            if (j < close && toks[j].text == "{") j = match_bracket(toks, j, "{", "}");
            if (j + 1 < close && toks[j + 1].text == ";") ++j;
            stmt = i = j + 1;
            continue;
        }
        if (t == "{" || t == "=") {
            // Default member initializer: the token before it names the field.
            const std::string& first = toks[stmt].text;
            const bool skip = first == "static" || first == "using" || first == "friend" ||
                              first == "typedef" || first == "constexpr";
            if (!skip && i >= stmt + 2 && toks[i - 1].is_ident) {
                const std::string& name = toks[i - 1].text;
                const std::string& type = toks[i - 2].text;
                if (!is_settings_struct(type) && !assigned.count(name)) {
                    out.push_back({Rule::kUnsetField, path, toks[i - 1].line,
                                   "'" + struct_name + "::" + name +
                                       "' has a default but no file assigns it: make it a "
                                       "named constant next to its use"});
                }
            }
            std::size_t j = i;
            if (t == "{") j = match_bracket(toks, i, "{", "}");
            while (j < close && toks[j].text != ";") {
                if (toks[j].text == "{") j = match_bracket(toks, j, "{", "}");
                else if (toks[j].text == "(") j = match_bracket(toks, j, "(", ")");
                ++j;
            }
            stmt = i = j + 1;
            continue;
        }
        if (t == ";") {
            stmt = i + 1;
        }
        ++i;
    }
}

}  // namespace

void collect_field_assignments(const std::vector<Token>& toks, std::set<std::string>& out) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].text != "." || !toks[i + 1].is_ident) continue;
        const std::string& next = toks[i + 2].text;
        const bool plain = next == "=" && (i + 3 >= toks.size() || toks[i + 3].text != "=");
        const bool push = next == "." && i + 3 < toks.size() && toks[i + 3].text == "push_back";
        if (plain || push) out.insert(toks[i + 1].text);
    }
}

void check_unset_fields(const std::string& path, const std::vector<Token>& toks,
                        const std::set<std::string>& assigned, std::vector<Finding>& out) {
    if (path.rfind("src/", 0) != 0) return;
    // Enclosing class bodies, so a nested `Params` reports as AgfwAgent::Params.
    std::vector<std::pair<std::string, std::size_t>> scopes;  // (name, closing brace)
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        while (!scopes.empty() && i > scopes.back().second) scopes.pop_back();
        if ((toks[i].text != "struct" && toks[i].text != "class") || !toks[i + 1].is_ident)
            continue;
        if (i > 0 && (toks[i - 1].text == "<" || toks[i - 1].text == ","))
            continue;  // a template parameter, not a definition
        const std::size_t open = body_open(toks, i);
        if (open == toks.size()) continue;
        const std::size_t close = match_bracket(toks, open, "{", "}");
        std::string name;
        for (const auto& scope : scopes) name += scope.first + "::";
        name += toks[i + 1].text;
        if (toks[i].text == "struct" && is_settings_struct(toks[i + 1].text)) {
            check_struct_body(path, name, toks, open, close, assigned, out);
            i = close;  // nested structs were checked with their parent
        } else {
            scopes.emplace_back(toks[i + 1].text, close);
        }
    }
}

}  // namespace geoanon::lint::internal
