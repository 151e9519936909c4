// Package token defines the lexical tokens of MJ, the Java-subset input
// language of the security policy oracle.
package token

import "strconv"

// Kind identifies a lexical token class.
type Kind int

// Token kinds.
const (
	Invalid Kind = iota
	EOF

	// Literals and identifiers.
	Ident     // connect
	IntLit    // 123
	StringLit // "abc"
	CharLit   // 'a'

	// Punctuation.
	LParen    // (
	RParen    // )
	LBrace    // {
	RBrace    // }
	LBracket  // [
	RBracket  // ]
	Semi      // ;
	Comma     // ,
	Dot       // .
	Question  // ?
	Colon     // :
	At        // @
	Ellipsis  // ...
	Assign    // =
	PlusEq    // +=
	MinusEq   // -=
	StarEq    // *=
	SlashEq   // /=
	PlusPlus  // ++
	MinusLess // --

	// Operators.
	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %
	Not     // !
	BitAnd  // &
	BitOr   // |
	Caret   // ^
	AndAnd  // &&
	OrOr    // ||
	Eq      // ==
	NotEq   // !=
	Lt      // <
	Gt      // >
	LtEq    // <=
	GtEq    // >=

	// Keywords.
	KwPackage
	KwImport
	KwClass
	KwInterface
	KwExtends
	KwImplements
	KwPublic
	KwProtected
	KwPrivate
	KwStatic
	KwFinal
	KwAbstract
	KwNative
	KwSynchronized
	KwTransient
	KwVolatile
	KwVoid
	KwBoolean
	KwInt
	KwLong
	KwChar
	KwByte
	KwShort
	KwFloat
	KwDouble
	KwIf
	KwElse
	KwWhile
	KwFor
	KwDo
	KwReturn
	KwBreak
	KwContinue
	KwNew
	KwNull
	KwTrue
	KwFalse
	KwThis
	KwSuper
	KwInstanceof
	KwThrow
	KwThrows
	KwTry
	KwCatch
	KwFinally
	KwSwitch
	KwCase
	KwDefault
)

var kindNames = map[Kind]string{
	Invalid: "invalid", EOF: "EOF",
	Ident: "identifier", IntLit: "int literal", StringLit: "string literal", CharLit: "char literal",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}", LBracket: "[", RBracket: "]",
	Semi: ";", Comma: ",", Dot: ".", Question: "?", Colon: ":", At: "@", Ellipsis: "...",
	Assign: "=", PlusEq: "+=", MinusEq: "-=", StarEq: "*=", SlashEq: "/=",
	PlusPlus: "++", MinusLess: "--",
	Plus: "+", Minus: "-", Star: "*", Slash: "/", Percent: "%", Not: "!",
	BitAnd: "&", BitOr: "|", Caret: "^", AndAnd: "&&", OrOr: "||",
	Eq: "==", NotEq: "!=", Lt: "<", Gt: ">", LtEq: "<=", GtEq: ">=",
	KwPackage: "package", KwImport: "import", KwClass: "class", KwInterface: "interface",
	KwExtends: "extends", KwImplements: "implements",
	KwPublic: "public", KwProtected: "protected", KwPrivate: "private",
	KwStatic: "static", KwFinal: "final", KwAbstract: "abstract", KwNative: "native",
	KwSynchronized: "synchronized", KwTransient: "transient", KwVolatile: "volatile",
	KwVoid: "void", KwBoolean: "boolean", KwInt: "int", KwLong: "long",
	KwChar: "char", KwByte: "byte", KwShort: "short", KwFloat: "float", KwDouble: "double",
	KwIf: "if", KwElse: "else", KwWhile: "while", KwFor: "for", KwDo: "do",
	KwReturn: "return", KwBreak: "break", KwContinue: "continue",
	KwNew: "new", KwNull: "null", KwTrue: "true", KwFalse: "false",
	KwThis: "this", KwSuper: "super", KwInstanceof: "instanceof",
	KwThrow: "throw", KwThrows: "throws", KwTry: "try", KwCatch: "catch", KwFinally: "finally",
	KwSwitch: "switch", KwCase: "case", KwDefault: "default",
}

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "kind(" + strconv.Itoa(int(k)) + ")"
}

// Keywords maps keyword spellings to their token kinds.
var Keywords = map[string]Kind{
	"package": KwPackage, "import": KwImport, "class": KwClass, "interface": KwInterface,
	"extends": KwExtends, "implements": KwImplements,
	"public": KwPublic, "protected": KwProtected, "private": KwPrivate,
	"static": KwStatic, "final": KwFinal, "abstract": KwAbstract, "native": KwNative,
	"synchronized": KwSynchronized, "transient": KwTransient, "volatile": KwVolatile,
	"void": KwVoid, "boolean": KwBoolean, "int": KwInt, "long": KwLong,
	"char": KwChar, "byte": KwByte, "short": KwShort, "float": KwFloat, "double": KwDouble,
	"if": KwIf, "else": KwElse, "while": KwWhile, "for": KwFor, "do": KwDo,
	"return": KwReturn, "break": KwBreak, "continue": KwContinue,
	"new": KwNew, "null": KwNull, "true": KwTrue, "false": KwFalse,
	"this": KwThis, "super": KwSuper, "instanceof": KwInstanceof,
	"throw": KwThrow, "throws": KwThrows, "try": KwTry, "catch": KwCatch, "finally": KwFinally,
	"switch": KwSwitch, "case": KwCase, "default": KwDefault,
}

// IsPrimitiveType reports whether k names a primitive type.
func (k Kind) IsPrimitiveType() bool {
	switch k {
	case KwVoid, KwBoolean, KwInt, KwLong, KwChar, KwByte, KwShort, KwFloat, KwDouble:
		return true
	}
	return false
}
