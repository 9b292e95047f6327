//===- tests/test_support.cpp - Arena/Source/Diagnostics/EditList --------===//

#include "rewrite/EditList.h"
#include "support/Arena.h"
#include "support/Diagnostics.h"
#include "support/Source.h"

#include <gtest/gtest.h>

using namespace gcsafe;

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

TEST(Arena, AllocationsAreAligned) {
  Arena A;
  for (size_t Align : {1, 2, 4, 8, 16, 64}) {
    void *P = A.allocate(3, Align);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
        << "alignment " << Align;
  }
}

TEST(Arena, LargeAllocationGetsOwnSlab) {
  Arena A;
  void *P = A.allocate(1 << 20, 8);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0xAB, 1 << 20); // must be fully writable
  EXPECT_GE(A.bytesAllocated(), size_t(1 << 20));
}

TEST(Arena, CopyStringIsStableAndNulTerminated) {
  Arena A;
  std::string Tmp = "hello world";
  std::string_view V = A.copyString(Tmp);
  Tmp.clear();
  EXPECT_EQ(V, "hello world");
  EXPECT_EQ(V.data()[V.size()], '\0');
}

TEST(Arena, CreateConstructsObjects) {
  Arena A;
  struct Pair {
    int X, Y;
    Pair(int X, int Y) : X(X), Y(Y) {}
  };
  Pair *P = A.create<Pair>(3, 4);
  EXPECT_EQ(P->X, 3);
  EXPECT_EQ(P->Y, 4);
}

TEST(Arena, DestroysWhatItCreatedNewestFirst) {
  std::vector<int> Order;
  struct Tracked {
    std::vector<int> *Log;
    int Id;
    std::vector<int> Payload; // a heap buffer the arena must release
    Tracked(std::vector<int> *Log, int Id)
        : Log(Log), Id(Id), Payload(100, Id) {}
    ~Tracked() { Log->push_back(Id); }
  };
  {
    Arena A;
    for (int I = 0; I < 3; ++I)
      A.create<Tracked>(&Order, I);
    A.create<int>(7); // trivially destructible: nothing recorded
    EXPECT_TRUE(Order.empty());
  }
  EXPECT_EQ(Order, (std::vector<int>{2, 1, 0}));
}

TEST(Arena, ManySmallAllocationsSurvive) {
  Arena A;
  std::vector<int *> Ptrs;
  for (int I = 0; I < 10000; ++I)
    Ptrs.push_back(A.create<int>(I));
  for (int I = 0; I < 10000; ++I)
    EXPECT_EQ(*Ptrs[I], I);
}

//===----------------------------------------------------------------------===//
// SourceBuffer
//===----------------------------------------------------------------------===//

TEST(SourceBuffer, LineColumnBasics) {
  SourceBuffer B("t.c", "ab\ncd\n\nxyz");
  EXPECT_EQ(B.lineColumn(SourceLocation(0)).Line, 1u);
  EXPECT_EQ(B.lineColumn(SourceLocation(0)).Column, 1u);
  EXPECT_EQ(B.lineColumn(SourceLocation(1)).Column, 2u);
  EXPECT_EQ(B.lineColumn(SourceLocation(3)).Line, 2u);
  EXPECT_EQ(B.lineColumn(SourceLocation(6)).Line, 3u);
  EXPECT_EQ(B.lineColumn(SourceLocation(7)).Line, 4u);
  EXPECT_EQ(B.lineColumn(SourceLocation(9)).Column, 3u);
}

TEST(SourceBuffer, LineColumnAtEof) {
  SourceBuffer B("t.c", "ab");
  LineColumn LC = B.lineColumn(SourceLocation(2));
  EXPECT_EQ(LC.Line, 1u);
  EXPECT_EQ(LC.Column, 3u);
}

TEST(SourceBuffer, LineText) {
  SourceBuffer B("t.c", "first\nsecond\nthird");
  EXPECT_EQ(B.lineText(SourceLocation(0)), "first");
  EXPECT_EQ(B.lineText(SourceLocation(8)), "second");
  EXPECT_EQ(B.lineText(SourceLocation(15)), "third");
}

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, CountsBySeverity) {
  DiagnosticsEngine D;
  D.error(SourceLocation(0), "bad");
  D.warning(SourceLocation(1), "meh");
  D.note(SourceLocation(2), "fyi");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.warningCount(), 1u);
  EXPECT_EQ(D.diagnostics().size(), 3u);
}

TEST(Diagnostics, RenderIncludesLocation) {
  SourceBuffer B("file.c", "int x;\nint y;\n");
  DiagnosticsEngine D;
  D.error(SourceLocation(7), "problem here");
  std::string Out = D.render(B);
  EXPECT_NE(Out.find("file.c:2:1: error: problem here"), std::string::npos)
      << Out;
}

TEST(Diagnostics, AnyMessageContains) {
  DiagnosticsEngine D;
  D.warning(SourceLocation(), "nonpointer value converted to pointer");
  EXPECT_TRUE(D.anyMessageContains("converted to pointer"));
  EXPECT_FALSE(D.anyMessageContains("no such text"));
}

//===----------------------------------------------------------------------===//
// EditList — the paper's sorted insertion/deletion list
//===----------------------------------------------------------------------===//

TEST(EditList, SimpleInsertions) {
  rewrite::EditList E;
  E.insertBefore(0, "A");
  E.insertBefore(3, "B");
  EXPECT_EQ(E.apply("xyz"), "AxyzB");
}

TEST(EditList, ReplaceAndRemove) {
  rewrite::EditList E;
  E.replace(2, 3, "KEEP");
  E.remove(6, 1);
  EXPECT_EQ(E.apply("ab123c4d"), "abKEEPcd");
}

TEST(EditList, NestedWrapsAtDistinctPositions) {
  // wrap [2,5) then wrap inner [3,4).
  rewrite::EditList E;
  E.insertBefore(2, "(");
  E.insertAfter(5, ")");
  E.insertBefore(3, "[");
  E.insertAfter(4, "]");
  EXPECT_EQ(E.apply("abcdefg"), "ab(c[d]e)fg");
}

TEST(EditList, SharedBeginNestsOuterFirst) {
  // Outer [0,5) recorded first, inner [0,3) second: prefixes at the same
  // position must open outermost-first.
  rewrite::EditList E;
  E.insertBefore(0, "O(");
  E.insertAfter(5, ")O");
  E.insertBefore(0, "I(");
  E.insertAfter(3, ")I");
  EXPECT_EQ(E.apply("abcde"), "O(I(abc)Ide)O");
}

TEST(EditList, SharedEndClosesInnerFirst) {
  // Outer [0,5), inner [2,5): closers at position 5 must close
  // innermost-first.
  rewrite::EditList E;
  E.insertBefore(0, "O(");
  E.insertAfter(5, ")O");
  E.insertBefore(2, "I(");
  E.insertAfter(5, ")I");
  EXPECT_EQ(E.apply("abcde"), "O(abI(cde)I)O");
}

TEST(EditList, PrefixBeforeReplacementAtSamePosition) {
  // A wrap whose prefix lands exactly where a replacement begins: the
  // prefix must precede the replaced text.
  rewrite::EditList E;
  E.insertBefore(2, "W(");
  E.insertAfter(6, ")W");
  E.replace(2, 2, "XY");
  EXPECT_EQ(E.apply("abcdefgh"), "abW(XYef)Wgh");
}

TEST(EditList, CloserBeforeOpenerAtSamePosition) {
  // Range [0,3) closes at 3; range [3,6) opens at 3.
  rewrite::EditList E;
  E.insertBefore(0, "A(");
  E.insertAfter(3, ")A");
  E.insertBefore(3, "B(");
  E.insertAfter(6, ")B");
  EXPECT_EQ(E.apply("xxxyyy"), "A(xxx)AB(yyy)B");
}

TEST(EditList, EmptyListIsIdentity) {
  rewrite::EditList E;
  EXPECT_EQ(E.apply("unchanged"), "unchanged");
  EXPECT_TRUE(E.empty());
}

TEST(EditList, InsertAtEndOfSource) {
  rewrite::EditList E;
  E.insertAfter(3, "!");
  EXPECT_EQ(E.apply("abc"), "abc!");
}

TEST(EditList, ManyEditsStaySorted) {
  rewrite::EditList E;
  std::string Src(100, '.');
  // Record out of order; apply must sort by position.
  for (int I = 90; I >= 0; I -= 10)
    E.replace(static_cast<uint32_t>(I), 1, std::to_string(I / 10));
  std::string Out = E.apply(Src);
  EXPECT_EQ(Out.size(), Src.size());
  EXPECT_EQ(Out[0], '0');
  EXPECT_EQ(Out[50], '5');
  EXPECT_EQ(Out[90], '9');
}
