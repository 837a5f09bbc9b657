# A syntax error on line 2: an operand is missing.
main:   addiu $v0, $a0,
        jr    $ra
        nop
