#include "isa/assembler.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/log.hh"
#include "common/xorshift.hh"

namespace nvmr
{

namespace
{

/** One operand token, either resolved now (numbers) or in pass 2
 *  (labels). */
struct Token
{
    std::string text;
};

/** A parsed source line (after label extraction). */
struct Stmt
{
    int lineNo = 0;
    std::string mnemonic;          // lowercase instruction or directive
    std::vector<Token> operands;
    std::string memBase;           // register inside imm(reg), if any
    bool hasMemOperand = false;
};

/** Assembler working state shared between passes. */
struct AsmState
{
    std::string progName;
    std::map<std::string, uint32_t> labels;
    std::vector<Stmt> textStmts;
    Program prog;
};

[[noreturn]] void
asmError(const AsmState &st, int line_no, const std::string &msg)
{
    fatal(st.progName, ".asm:", line_no, ": ", msg);
}

/** Strip comments and surrounding whitespace. */
std::string
cleanLine(const std::string &raw)
{
    std::string line = raw;
    bool in_str = false;
    for (size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == '"')
            in_str = !in_str;
        if (!in_str && (c == '#' || c == ';')) {
            line.erase(i);
            break;
        }
    }
    size_t b = line.find_first_not_of(" \t\r\n");
    if (b == std::string::npos)
        return "";
    size_t e = line.find_last_not_of(" \t\r\n");
    return line.substr(b, e - b + 1);
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
}

/** Parse a register name; returns nullopt if not a register. */
std::optional<unsigned>
parseReg(const std::string &tok)
{
    if (tok == "zero")
        return kRegZero;
    if (tok == "sp")
        return kRegSp;
    if (tok == "ra")
        return kRegRa;
    if (tok.size() >= 2 && tok[0] == 'r' &&
        std::isdigit(static_cast<unsigned char>(tok[1]))) {
        unsigned v = 0;
        for (size_t i = 1; i < tok.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(tok[i])))
                return std::nullopt;
            v = v * 10 + (tok[i] - '0');
        }
        if (v < kNumRegs)
            return v;
    }
    return std::nullopt;
}

/** Parse an integer literal (dec, hex, negative, or 'c'). */
std::optional<int64_t>
parseIntLiteral(const std::string &tok)
{
    if (tok.empty())
        return std::nullopt;
    if (tok.size() == 3 && tok.front() == '\'' && tok.back() == '\'')
        return static_cast<int64_t>(tok[1]);
    size_t pos = 0;
    bool neg = false;
    if (tok[pos] == '-' || tok[pos] == '+') {
        neg = tok[pos] == '-';
        ++pos;
    }
    if (pos >= tok.size())
        return std::nullopt;
    int base = 10;
    if (tok.size() > pos + 2 && tok[pos] == '0' &&
        (tok[pos + 1] == 'x' || tok[pos + 1] == 'X')) {
        base = 16;
        pos += 2;
    }
    int64_t v = 0;
    for (; pos < tok.size(); ++pos) {
        char c = tok[pos];
        int digit;
        if (std::isdigit(static_cast<unsigned char>(c)))
            digit = c - '0';
        else if (base == 16 && std::isxdigit(static_cast<unsigned char>(c)))
            digit = std::tolower(c) - 'a' + 10;
        else
            return std::nullopt;
        v = v * base + digit;
    }
    return neg ? -v : v;
}

/**
 * Evaluate an operand expression: integer literal, label, or
 * label+int / label-int.
 */
int64_t
evalExpr(const AsmState &st, int line_no, const std::string &expr)
{
    if (auto lit = parseIntLiteral(expr))
        return *lit;

    // Split at the last top-level '+' or '-' (not the leading char).
    size_t split = std::string::npos;
    for (size_t i = 1; i < expr.size(); ++i)
        if (expr[i] == '+' || expr[i] == '-')
            split = i;

    std::string base = expr;
    int64_t offset = 0;
    if (split != std::string::npos) {
        base = expr.substr(0, split);
        auto off = parseIntLiteral(expr.substr(split));
        if (!off)
            asmError(st, line_no, "bad offset in expression '" + expr + "'");
        offset = *off;
    }
    auto it = st.labels.find(base);
    if (it == st.labels.end())
        asmError(st, line_no, "undefined symbol '" + base + "'");
    return static_cast<int64_t>(it->second) + offset;
}

/** Tokenize the operand part of a line, splitting on commas/space and
 *  recognizing the mem-operand form expr(reg). */
void
parseOperands(AsmState &st, Stmt &stmt, const std::string &text)
{
    size_t i = 0;
    auto skip_ws = [&] {
        while (i < text.size() &&
               (text[i] == ' ' || text[i] == '\t' || text[i] == ','))
            ++i;
    };
    skip_ws();
    while (i < text.size()) {
        if (text[i] == '"') { // string literal (for .asciiz)
            size_t end = text.find('"', i + 1);
            if (end == std::string::npos)
                asmError(st, stmt.lineNo, "unterminated string");
            stmt.operands.push_back({text.substr(i, end - i + 1)});
            i = end + 1;
        } else {
            size_t start = i;
            while (i < text.size() && text[i] != ',' && text[i] != ' ' &&
                   text[i] != '\t' && text[i] != '(')
                ++i;
            std::string tok = text.substr(start, i - start);
            if (i < text.size() && text[i] == '(') {
                size_t close = text.find(')', i);
                if (close == std::string::npos)
                    asmError(st, stmt.lineNo, "missing ')'");
                stmt.memBase = text.substr(i + 1, close - i - 1);
                stmt.hasMemOperand = true;
                i = close + 1;
            }
            if (!tok.empty() || stmt.hasMemOperand)
                stmt.operands.push_back({tok});
        }
        skip_ws();
    }
}

struct OpInfo
{
    Op op;
    enum class Kind { RType, IType, Li, Mem, Branch, Jmp, Jal, Jr, None }
        kind;
};

const std::map<std::string, OpInfo> &
opTable()
{
    using K = OpInfo::Kind;
    static const std::map<std::string, OpInfo> table = {
        {"add", {Op::ADD, K::RType}},   {"sub", {Op::SUB, K::RType}},
        {"mul", {Op::MUL, K::RType}},   {"div", {Op::DIV, K::RType}},
        {"rem", {Op::REM, K::RType}},   {"and", {Op::AND, K::RType}},
        {"or", {Op::OR, K::RType}},     {"xor", {Op::XOR, K::RType}},
        {"sll", {Op::SLL, K::RType}},   {"srl", {Op::SRL, K::RType}},
        {"sra", {Op::SRA, K::RType}},   {"slt", {Op::SLT, K::RType}},
        {"sltu", {Op::SLTU, K::RType}},
        {"addi", {Op::ADDI, K::IType}}, {"andi", {Op::ANDI, K::IType}},
        {"ori", {Op::ORI, K::IType}},   {"xori", {Op::XORI, K::IType}},
        {"slli", {Op::SLLI, K::IType}}, {"srli", {Op::SRLI, K::IType}},
        {"srai", {Op::SRAI, K::IType}}, {"slti", {Op::SLTI, K::IType}},
        {"muli", {Op::MULI, K::IType}},
        {"li", {Op::LUI, K::Li}},
        {"ld", {Op::LD, K::Mem}},       {"st", {Op::ST, K::Mem}},
        {"ldb", {Op::LDB, K::Mem}},     {"stb", {Op::STB, K::Mem}},
        {"beq", {Op::BEQ, K::Branch}},  {"bne", {Op::BNE, K::Branch}},
        {"blt", {Op::BLT, K::Branch}},  {"bge", {Op::BGE, K::Branch}},
        {"bltu", {Op::BLTU, K::Branch}},{"bgeu", {Op::BGEU, K::Branch}},
        {"jmp", {Op::JMP, K::Jmp}},     {"jal", {Op::JAL, K::Jal}},
        {"jr", {Op::JR, K::Jr}},        {"halt", {Op::HALT, K::None}},
        {"task", {Op::TASK, K::None}},
    };
    return table;
}

unsigned
expectReg(const AsmState &st, const Stmt &stmt, size_t idx)
{
    if (idx >= stmt.operands.size())
        asmError(st, stmt.lineNo, "missing register operand");
    auto r = parseReg(stmt.operands[idx].text);
    if (!r)
        asmError(st, stmt.lineNo,
                 "expected register, got '" + stmt.operands[idx].text + "'");
    return *r;
}

int32_t
expectExpr(const AsmState &st, const Stmt &stmt, size_t idx)
{
    if (idx >= stmt.operands.size())
        asmError(st, stmt.lineNo, "missing immediate operand");
    return static_cast<int32_t>(
        evalExpr(st, stmt.lineNo, stmt.operands[idx].text));
}

/** Expand pseudo-instructions into base statements. Returns how many
 *  real instructions a mnemonic occupies (all pseudos here are 1:1). */
bool
isPseudo(const std::string &m)
{
    return m == "mv" || m == "nop" || m == "neg" || m == "not" ||
           m == "call" || m == "ret" || m == "bgt" || m == "ble" ||
           m == "bgtu" || m == "bleu";
}

/** Encode one text statement (pass 2). */
Instruction
encode(AsmState &st, const Stmt &stmt)
{
    using K = OpInfo::Kind;
    Instruction inst;
    const std::string &m = stmt.mnemonic;

    // Pseudo-instruction rewriting.
    if (m == "nop")
        return {Op::ADDI, kRegZero, kRegZero, 0, 0};
    if (m == "mv") {
        inst.op = Op::ADDI;
        inst.rd = expectReg(st, stmt, 0);
        inst.rs1 = expectReg(st, stmt, 1);
        inst.imm = 0;
        return inst;
    }
    if (m == "neg") {
        inst.op = Op::SUB;
        inst.rd = expectReg(st, stmt, 0);
        inst.rs1 = kRegZero;
        inst.rs2 = expectReg(st, stmt, 1);
        return inst;
    }
    if (m == "not") {
        inst.op = Op::XORI;
        inst.rd = expectReg(st, stmt, 0);
        inst.rs1 = expectReg(st, stmt, 1);
        inst.imm = -1;
        return inst;
    }
    if (m == "call") {
        inst.op = Op::JAL;
        inst.rd = kRegRa;
        inst.imm = expectExpr(st, stmt, 0);
        return inst;
    }
    if (m == "ret")
        return {Op::JR, 0, kRegRa, 0, 0};
    if (m == "bgt" || m == "ble" || m == "bgtu" || m == "bleu") {
        // bgt a,b,t == blt b,a,t ; ble a,b,t == bge b,a,t
        inst.op = (m == "bgt") ? Op::BLT
                : (m == "ble") ? Op::BGE
                : (m == "bgtu") ? Op::BLTU
                : Op::BGEU;
        inst.rs1 = expectReg(st, stmt, 1);
        inst.rs2 = expectReg(st, stmt, 0);
        inst.imm = expectExpr(st, stmt, 2);
        return inst;
    }

    auto it = opTable().find(m);
    if (it == opTable().end())
        asmError(st, stmt.lineNo, "unknown mnemonic '" + m + "'");
    const OpInfo &info = it->second;
    inst.op = info.op;

    switch (info.kind) {
      case K::RType:
        inst.rd = expectReg(st, stmt, 0);
        inst.rs1 = expectReg(st, stmt, 1);
        inst.rs2 = expectReg(st, stmt, 2);
        break;
      case K::IType:
        inst.rd = expectReg(st, stmt, 0);
        inst.rs1 = expectReg(st, stmt, 1);
        inst.imm = expectExpr(st, stmt, 2);
        break;
      case K::Li:
        inst.rd = expectReg(st, stmt, 0);
        inst.rs1 = kRegZero;
        inst.imm = expectExpr(st, stmt, 1);
        break;
      case K::Mem:
        if (!stmt.hasMemOperand)
            asmError(st, stmt.lineNo, "expected imm(reg) operand");
        // operands: reg, offsetExpr; memBase holds the base register.
        inst.rd = expectReg(st, stmt, 0);   // data reg (dest or src)
        inst.imm = expectExpr(st, stmt, 1);
        {
            auto base = parseReg(stmt.memBase);
            if (!base)
                asmError(st, stmt.lineNo,
                         "bad base register '" + stmt.memBase + "'");
            inst.rs1 = *base;
        }
        if (isStore(inst.op)) {
            inst.rs2 = inst.rd; // store data register
            inst.rd = 0;
        }
        break;
      case K::Branch:
        inst.rs1 = expectReg(st, stmt, 0);
        inst.rs2 = expectReg(st, stmt, 1);
        inst.imm = expectExpr(st, stmt, 2);
        break;
      case K::Jmp:
        inst.imm = expectExpr(st, stmt, 0);
        break;
      case K::Jal:
        inst.rd = expectReg(st, stmt, 0);
        inst.imm = expectExpr(st, stmt, 1);
        break;
      case K::Jr:
        inst.rs1 = expectReg(st, stmt, 0);
        inst.imm = stmt.operands.size() > 1 ? expectExpr(st, stmt, 1) : 0;
        break;
      case K::None:
        break;
    }
    return inst;
}

void
appendWord(std::vector<uint8_t> &data, uint32_t w)
{
    for (unsigned i = 0; i < kWordBytes; ++i)
        data.push_back(static_cast<uint8_t>(w >> (8 * i)));
}

} // namespace

Program
assemble(const std::string &name, const std::string &source)
{
    AsmState st;
    st.progName = name;
    st.prog.name = name;

    // ------------------------------------------------------------------
    // Pass 1: scan lines, record labels, lay out the data section, and
    // collect text statements. Data directives are executed here except
    // for .word operands that reference labels (patched in pass 2).
    // ------------------------------------------------------------------
    struct WordPatch
    {
        size_t offset;     // byte offset in data image
        std::string expr;
        int lineNo;
    };
    std::vector<WordPatch> patches;

    enum class Section { Text, Data };
    Section section = Section::Text;

    std::istringstream in(source);
    std::string raw;
    int line_no = 0;
    uint32_t text_idx = 0;

    while (std::getline(in, raw)) {
        ++line_no;
        std::string line = cleanLine(raw);
        if (line.empty())
            continue;

        // Extract leading labels ("name:").
        while (true) {
            size_t i = 0;
            while (i < line.size() && isIdentChar(line[i]))
                ++i;
            if (i == 0 || i >= line.size() || line[i] != ':')
                break;
            std::string label = line.substr(0, i);
            if (st.labels.count(label))
                asmError(st, line_no, "duplicate label '" + label + "'");
            st.labels[label] = section == Section::Text
                                   ? text_idx
                                   : static_cast<uint32_t>(
                                         st.prog.data.size());
            line = cleanLine(line.substr(i + 1));
            if (line.empty())
                break;
        }
        if (line.empty())
            continue;

        // Split mnemonic from operands.
        size_t sp = line.find_first_of(" \t");
        std::string mnemonic = line.substr(0, sp);
        std::string rest = sp == std::string::npos
                               ? ""
                               : cleanLine(line.substr(sp));
        for (auto &c : mnemonic)
            c = static_cast<char>(std::tolower(
                static_cast<unsigned char>(c)));

        if (mnemonic == ".data") {
            section = Section::Data;
            continue;
        }
        if (mnemonic == ".text") {
            section = Section::Text;
            continue;
        }

        if (mnemonic[0] == '.') {
            if (section != Section::Data)
                asmError(st, line_no,
                         "directive " + mnemonic + " outside .data");
            Stmt stmt;
            stmt.lineNo = line_no;
            parseOperands(st, stmt, rest);
            auto &data = st.prog.data;
            // Refuse growth past the NVM before allocating it: a
            // `.space 1099511627776` must be an error, not a
            // multi-terabyte allocation.
            auto require_room = [&](uint64_t extra) {
                if (data.size() > kMaxDataBytes ||
                    extra > kMaxDataBytes - data.size())
                    asmError(st, line_no,
                             mnemonic + " grows the data segment past "
                             "the " + std::to_string(kMaxDataBytes) +
                             "-byte NVM");
            };
            if (mnemonic == ".word") {
                while (data.size() % kWordBytes)
                    data.push_back(0);
                for (const Token &t : stmt.operands) {
                    if (auto lit = parseIntLiteral(t.text)) {
                        appendWord(data, static_cast<uint32_t>(*lit));
                    } else {
                        patches.push_back({data.size(), t.text, line_no});
                        appendWord(data, 0);
                    }
                }
            } else if (mnemonic == ".space") {
                if (stmt.operands.size() != 1)
                    asmError(st, line_no, ".space takes one operand");
                auto n = parseIntLiteral(stmt.operands[0].text);
                if (!n || *n < 0)
                    asmError(st, line_no, "bad .space size");
                require_room(static_cast<uint64_t>(*n));
                data.insert(data.end(), static_cast<size_t>(*n), 0);
            } else if (mnemonic == ".rand") {
                if (stmt.operands.size() != 4)
                    asmError(st, line_no,
                             ".rand takes: count seed lo hi");
                auto cnt = parseIntLiteral(stmt.operands[0].text);
                auto seed = parseIntLiteral(stmt.operands[1].text);
                auto lo = parseIntLiteral(stmt.operands[2].text);
                auto hi = parseIntLiteral(stmt.operands[3].text);
                if (!cnt || !seed || !lo || !hi || *cnt < 0)
                    asmError(st, line_no, "bad .rand operands");
                // Clamped first so the byte count cannot overflow.
                require_room(
                    std::min<uint64_t>(*cnt, kMaxDataBytes) * kWordBytes +
                    (kWordBytes - data.size() % kWordBytes) % kWordBytes);
                while (data.size() % kWordBytes)
                    data.push_back(0);
                XorShift rng(static_cast<uint64_t>(*seed));
                for (int64_t i = 0; i < *cnt; ++i)
                    appendWord(data, static_cast<uint32_t>(
                                         rng.range(*lo, *hi)));
            } else if (mnemonic == ".asciiz") {
                if (stmt.operands.size() != 1 ||
                    stmt.operands[0].text.size() < 2 ||
                    stmt.operands[0].text.front() != '"')
                    asmError(st, line_no, ".asciiz takes a string");
                const std::string &s = stmt.operands[0].text;
                for (size_t i = 1; i + 1 < s.size(); ++i)
                    data.push_back(static_cast<uint8_t>(s[i]));
                data.push_back(0);
            } else if (mnemonic == ".align") {
                if (stmt.operands.size() != 1)
                    asmError(st, line_no, ".align takes one operand");
                auto n = parseIntLiteral(stmt.operands[0].text);
                if (!n || *n <= 0)
                    asmError(st, line_no, "bad .align value");
                uint64_t align = static_cast<uint64_t>(*n);
                require_room((align - data.size() % align) % align);
                while (data.size() % static_cast<size_t>(*n))
                    data.push_back(0);
            } else {
                asmError(st, line_no,
                         "unknown directive '" + mnemonic + "'");
            }
            require_room(0); // .word and .asciiz lists grow it too
            continue;
        }

        // Text statement.
        if (section != Section::Text)
            asmError(st, line_no, "instruction inside .data section");
        Stmt stmt;
        stmt.lineNo = line_no;
        stmt.mnemonic = mnemonic;
        parseOperands(st, stmt, rest);
        if (!isPseudo(mnemonic) && !opTable().count(mnemonic))
            asmError(st, line_no, "unknown mnemonic '" + mnemonic + "'");
        st.textStmts.push_back(std::move(stmt));
        ++text_idx;
    }

    // ------------------------------------------------------------------
    // Pass 2: encode instructions and patch label-valued data words.
    // ------------------------------------------------------------------
    for (const Stmt &stmt : st.textStmts)
        st.prog.text.push_back(encode(st, stmt));

    for (const WordPatch &p : patches) {
        uint32_t v = static_cast<uint32_t>(
            evalExpr(st, p.lineNo, p.expr));
        for (unsigned i = 0; i < kWordBytes; ++i)
            st.prog.data[p.offset + i] =
                static_cast<uint8_t>(v >> (8 * i));
    }

    st.prog.labels = st.labels;
    auto main_it = st.labels.find("main");
    st.prog.entry = main_it == st.labels.end() ? 0 : main_it->second;
    fatal_if(st.prog.text.empty(),
             name, ": program has no instructions");
    return st.prog;
}

} // namespace nvmr
