# Timing-model stress fixture for the trace replay engine.
#
# Each of 40 iterations issues a burst of 32 back-to-back word stores.
# The data cache has one write port, so every cycle of the burst is a
# used cache cycle and the 16-entry store buffer cannot retire: it
# fills and forces store_buffer_full_stalls. The loop body also
# exercises the other arms of the issue recurrence: post-increment
# loads and stores (always speculated on FAC machines), a negative
# register index (an always-failing FAC prediction, replayed in MEM)
# followed the next cycle by a load (which still speculates after a
# replayed load, Section 5.5),
# FP divides (non-pipelined FP unit), an integer divide (non-pipelined
# integer unit) and FP loads and stores.
.data
.align 14
buf:    .space 4096

.text
.globl __start
__start:
        la    $s0, buf
        li    $s1, 40             # iterations left
        li    $t9, 3
        mtc1  $t9, $f2
        cvt.d.w $f2, $f2
loop:
        sw    $s1, 0($s0)
        sw    $s1, 4($s0)
        sw    $s1, 8($s0)
        sw    $s1, 12($s0)
        sw    $s1, 16($s0)
        sw    $s1, 20($s0)
        sw    $s1, 24($s0)
        sw    $s1, 28($s0)
        sw    $s1, 32($s0)
        sw    $s1, 36($s0)
        sw    $s1, 40($s0)
        sw    $s1, 44($s0)
        sw    $s1, 48($s0)
        sw    $s1, 52($s0)
        sw    $s1, 56($s0)
        sw    $s1, 60($s0)
        sw    $s1, 64($s0)
        sw    $s1, 68($s0)
        sw    $s1, 72($s0)
        sw    $s1, 76($s0)
        sw    $s1, 80($s0)
        sw    $s1, 84($s0)
        sw    $s1, 88($s0)
        sw    $s1, 92($s0)
        sw    $s1, 96($s0)
        sw    $s1, 100($s0)
        sw    $s1, 104($s0)
        sw    $s1, 108($s0)
        sw    $s1, 112($s0)
        sw    $s1, 116($s0)
        sw    $s1, 120($s0)
        sw    $s1, 124($s0)
        move  $t1, $s0            # post-increment walk
        lwpi  $t2, ($t1)+4
        lwpi  $t3, ($t1)+4
        swpi  $t2, ($t1)+4
        swpi  $t3, ($t1)+4
        li    $t4, -8             # negative register index
        addiu $t5, $s0, 256
        lwx   $t6, $t4($t5)
        addiu $t7, $s0, 64
        lw    $t8, 0($t7)         # the cycle after a replayed load
        swx   $t6, $t4($t5)
        mtc1  $s1, $f4
        cvt.d.w $f4, $f4
        div.d $f6, $f4, $f2       # FP divides, back to back
        div.d $f8, $f6, $f2
        sdc1  $f8, 512($s0)
        ldc1  $f10, 512($s0)
        div   $s1, $t9            # integer divide
        mflo  $t7
        addiu $s1, $s1, -1
        bne   $s1, $zero, loop
        li    $v0, 10
        syscall
